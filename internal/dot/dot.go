// Package dot renders workflows, dependence graphs and recovery schedules
// as Graphviz DOT documents, for documentation and debugging. Output is
// deterministic (sorted nodes and edges) so it can be asserted in tests and
// committed as golden files.
package dot

import (
	"fmt"
	"sort"
	"strings"

	"selfheal/internal/deps"
	"selfheal/internal/recovery"
	"selfheal/internal/stg"
	"selfheal/internal/wf"
)

// quote escapes a DOT identifier.
func quote(s string) string {
	return `"` + strings.ReplaceAll(s, `"`, `\"`) + `"`
}

// Workflow renders a workflow specification: choice nodes as diamonds, end
// nodes as double circles, edges in declaration order.
func Workflow(s *wf.Spec) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %s {\n", quote(s.Name))
	sb.WriteString("  rankdir=LR;\n")
	for _, t := range s.Tasks {
		id := string(t.ID)
		attrs := []string{fmt.Sprintf("label=%s", quote(id))}
		switch {
		case len(t.Next) > 1:
			attrs = append(attrs, "shape=diamond")
		case len(t.Next) == 0:
			attrs = append(attrs, "shape=doublecircle")
		default:
			attrs = append(attrs, "shape=box")
		}
		if wf.TaskID(id) == s.Start {
			attrs = append(attrs, "style=bold")
		}
		fmt.Fprintf(&sb, "  %s [%s];\n", quote(id), strings.Join(attrs, ", "))
	}
	for _, t := range s.Tasks {
		for _, n := range t.Next {
			fmt.Fprintf(&sb, "  %s -> %s;\n", quote(string(t.ID)), quote(string(n)))
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// Dependences renders the data-dependence graph extracted from a log: flow
// edges solid, anti-flow dashed, output dotted, labeled with the key.
func Dependences(g *deps.Graph) string {
	var sb strings.Builder
	sb.WriteString("digraph dependences {\n  rankdir=LR;\n")
	nodes := map[string]bool{}
	var lines []string
	add := func(es []deps.Edge, style string) {
		for _, e := range es {
			nodes[string(e.From)] = true
			nodes[string(e.To)] = true
			lines = append(lines, fmt.Sprintf("  %s -> %s [style=%s, label=%s];",
				quote(string(e.From)), quote(string(e.To)), style, quote(string(e.Key))))
		}
	}
	add(g.Flow(), "solid")
	add(g.Anti(), "dashed")
	add(g.Output(), "dotted")
	names := make([]string, 0, len(nodes))
	for n := range nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&sb, "  %s [shape=box];\n", quote(n))
	}
	sort.Strings(lines)
	for _, l := range lines {
		sb.WriteString(l)
		sb.WriteByte('\n')
	}
	sb.WriteString("}\n")
	return sb.String()
}

// STG renders the recovery system's state transition graph — the paper's
// Figure 3 — with states labeled N (NORMAL), S:a (SCAN with a alerts,
// recovery units as the second coordinate) and R:r (RECOVERY), and edges
// labeled with their rates.
func STG(m *stg.Model) string {
	var sb strings.Builder
	sb.WriteString("digraph stg {\n  rankdir=TB;\n")
	label := func(s stg.State) string {
		switch s.Classify() {
		case stg.Normal:
			return "N"
		case stg.Scan:
			return fmt.Sprintf("S:%d/%d", s.Alerts, s.Recovery)
		default:
			return fmt.Sprintf("R:%d", s.Recovery)
		}
	}
	states := m.States()
	for i, s := range states {
		shape := "circle"
		if s.Alerts == m.Params().AlertBuf {
			shape = "doubleoctagon" // right edge: arrivals lost here
		}
		fmt.Fprintf(&sb, "  s%d [label=%s, shape=%s];\n", i, quote(label(s)), shape)
	}
	q := m.Chain().Generator()
	for i := 0; i < m.N(); i++ {
		for j := 0; j < m.N(); j++ {
			if i == j {
				continue
			}
			if rate := q.At(i, j); rate > 0 {
				fmt.Fprintf(&sb, "  s%d -> s%d [label=%s];\n", i, j, quote(fmt.Sprintf("%.3g", rate)))
			}
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// Schedule renders a recovery schedule: undo actions red, redo blue,
// newly-executed green, kept gray, chained in committed order.
func Schedule(res *recovery.Result) string {
	var sb strings.Builder
	sb.WriteString("digraph recovery {\n  rankdir=LR;\n")
	color := func(k recovery.ActionKind) string {
		switch k {
		case recovery.ActUndo:
			return "red"
		case recovery.ActRedo:
			return "blue"
		case recovery.ActExecNew:
			return "green"
		default:
			return "gray"
		}
	}
	var prev string
	for i, a := range res.Schedule {
		id := fmt.Sprintf("%d: %s %s", i, a.Kind, a.Inst)
		fmt.Fprintf(&sb, "  %s [shape=box, color=%s, label=%s];\n",
			quote(id), color(a.Kind), quote(fmt.Sprintf("%s\\n%s", a.Kind, a.Inst)))
		if prev != "" {
			fmt.Fprintf(&sb, "  %s -> %s;\n", quote(prev), quote(id))
		}
		prev = id
	}
	sb.WriteString("}\n")
	return sb.String()
}
