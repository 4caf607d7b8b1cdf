package deps

import (
	"sort"

	"selfheal/internal/data"
	"selfheal/internal/wf"
)

// StaticEdge is a potential dependence between two tasks of one workflow,
// derived at compile time from the specification alone (§IV.B: "data and
// control dependence relations … can be calculated when compiling
// workflows"). A static edge means there exists an execution path on which
// the dependence can materialize; whether it does in a given run is decided
// by the log-based analysis.
type StaticEdge struct {
	From, To wf.TaskID
	Key      data.Key
}

// StaticFlow computes the potential flow dependences of a specification:
// From →_f To via Key holds when some execution path leads from From to To
// with Key ∈ W(From) ∩ R(To) and no intermediate task on that path writing
// Key (Definition 1's masking, lifted to paths). Edges are sorted.
func StaticFlow(s *wf.Spec) []StaticEdge {
	return staticReach(s, func(t *wf.Task) []data.Key { return t.Writes },
		func(t *wf.Task) []data.Key { return t.Reads })
}

// StaticAnti computes the potential anti-flow dependences: From reads Key
// and To, reachable from From without an intermediate writer of Key,
// overwrites it.
func StaticAnti(s *wf.Spec) []StaticEdge {
	return staticReach(s, func(t *wf.Task) []data.Key { return t.Reads },
		func(t *wf.Task) []data.Key { return t.Writes })
}

// StaticOutput computes the potential output dependences: From and To both
// write Key, with To reachable from From without an intermediate writer.
func StaticOutput(s *wf.Spec) []StaticEdge {
	return staticReach(s, func(t *wf.Task) []data.Key { return t.Writes },
		func(t *wf.Task) []data.Key { return t.Writes })
}

// staticReach finds pairs (from, to) such that `key` appears in srcSet(from)
// and dstSet(to), and to is reachable from from along edges whose interior
// nodes do not write key. The walk is per (from, key): BFS over successors,
// stopping at writers of key (the masking task itself can still be a `to`
// if key is in its dstSet — it is the first to touch the key again).
func staticReach(s *wf.Spec, srcSet, dstSet func(*wf.Task) []data.Key) []StaticEdge {
	var out []StaticEdge
	for i := range s.Tasks {
		from := &s.Tasks[i]
		for _, key := range srcSet(from) {
			// BFS from from's successors; interior writers of key mask
			// further propagation.
			seen := map[wf.TaskID]bool{}
			queue := append([]wf.TaskID(nil), from.Next...)
			for len(queue) > 0 {
				cur := queue[0]
				queue = queue[1:]
				if seen[cur] {
					continue
				}
				seen[cur] = true
				task := s.Task(cur)
				if containsKeyIn(dstSet(task), key) {
					out = append(out, StaticEdge{From: from.ID, To: cur, Key: key})
				}
				if containsKeyIn(task.Writes, key) {
					continue // masked beyond this writer
				}
				queue = append(queue, task.Next...)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		if out[i].To != out[j].To {
			return out[i].To < out[j].To
		}
		return out[i].Key < out[j].Key
	})
	return out
}

func containsKeyIn(keys []data.Key, k data.Key) bool {
	for _, x := range keys {
		if x == k {
			return true
		}
	}
	return false
}

// HasStaticEdge reports whether the edge set contains (from, to) via key.
func HasStaticEdge(edges []StaticEdge, from, to wf.TaskID, key data.Key) bool {
	for _, e := range edges {
		if e.From == from && e.To == to && e.Key == key {
			return true
		}
	}
	return false
}
