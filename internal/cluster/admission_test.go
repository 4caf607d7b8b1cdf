package cluster_test

import (
	"bytes"
	"net/http"
	"testing"
	"time"

	"selfheal/internal/cluster"
	"selfheal/internal/obs"
)

// A run registered through a follower commits its first window — here the
// whole 8-task run, whose every task is owned by a different node than the
// one before it, and whose first task reads a key only the spec's init
// seeds — in the spec's stamp group: it is done when SubmitRunSpec returns,
// one group was stamped for it, and no control token moved.
func TestRunCommitsAtAdmission(t *testing.T) {
	ids := []string{"a", "b", "c"}
	h := startCluster(t, ids, false, nil)
	keys := keysByOwner(ids, 3)
	var chain []string
	for i := 0; i < 8; i++ {
		chain = append(chain, keys[ids[i%3]][i/3])
	}
	entry := h.follower()
	stamper := cluster.NewRing(ids).Stamper()
	before := h.regs[stamper].Snapshot()
	doc := chainSpec(chain, 3)
	doc.Init = map[string]int64{"seeded": 5}
	doc.Tasks[0].Reads = []string{"seeded"}
	if err := h.nodes[entry].SubmitRunSpec("fast", doc); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if info, err := h.nodes[entry].RunInfo("fast"); err != nil || info.Status != "done" || info.Steps != len(chain) {
		t.Fatalf("run after SubmitRunSpec returned: %+v (%v), want done with %d steps", info, err, len(chain))
	}
	after := h.regs[stamper].Snapshot()
	groups := after[obs.MClusterStampBatchSize+"_count"] - before[obs.MClusterStampBatchSize+"_count"]
	records := after[obs.MClusterStampBatchSize+"_sum"] - before[obs.MClusterStampBatchSize+"_sum"]
	if groups != 1 || records != float64(1+len(chain)) {
		t.Errorf("%v stamp groups holding %v records, want 1 group holding the spec and %d entries", groups, records, len(chain))
	}
	h.waitIdle(stamper, 10*time.Second)
	h.assertStoresIdentical()
	if got := h.nodes[stamper].StoreSnapshot()[chain[0]]; got != 5+3 {
		t.Errorf("the first task wrote %d, want the init value 5 plus its bias 3", got)
	}
	var tokens float64
	for _, id := range ids {
		tokens += h.regs[id].Snapshot()[obs.MClusterTokensSent]
	}
	if tokens != 0 {
		t.Errorf("%v control tokens sent for a run committed at admission", tokens)
	}
	if got := h.regs[entry].Snapshot()[obs.MClusterRunsDoneAtAdmission]; got != 1 {
		t.Errorf("%s = %v on the admission node, want 1", obs.MClusterRunsDoneAtAdmission, got)
	}
}

// An admission window that cannot commit in full falls back to the owners:
// the registration stamps what validates, and the run continues through
// runLoop, tokens and the stamper's OCC to the byte-identical store an
// unobstructed registration leaves. Two obstructions: the admission node's
// replica is behind the stamper (every replication body into it held), so
// the window's first read is stale; and one of the run's keys is paused at
// the stamper's admission gate, so the window commits only up to it and the
// run completes only after the release.
func TestAdmissionWindowFallsBack(t *testing.T) {
	ids := []string{"a", "b", "c"}
	stamper := cluster.NewRing(ids).Stamper()
	keys := keysByOwner(ids, 2)
	// seed writes the key the run's first task reads; the run then writes
	// keys of every owner.
	seed := chainSpec([]string{keys["c"][0]}, 40)
	run := chainSpec([]string{keys["a"][0], keys["b"][0], keys["c"][1], keys["a"][1]}, 7)
	run.Tasks[0].Reads = []string{keys["c"][0]}
	paused := keys["b"][0] // the run's second task writes it

	// register boots a cluster, lets obstruct set up, commits the seed
	// through c and registers the run through the follower b. Unless the
	// obstruction holds b's replica behind the stamper (behind), b has
	// applied the seed before the registration, and register reports the
	// run's status when SubmitRunSpec returned, before the release.
	register := func(t *testing.T, behind bool, obstruct func(h *harness) (release func())) (*harness, string) {
		h := startCluster(t, ids, false, nil)
		release := func() {}
		if obstruct != nil {
			release = obstruct(h)
		}
		if err := h.nodes["c"].SubmitRunSpec("seed", seed); err != nil {
			t.Fatalf("submit seed: %v", err)
		}
		if !behind {
			waitRunDone(t, h.nodes["b"], "seed", 10*time.Second)
		}
		errc := make(chan error, 1)
		go func() { errc <- h.nodes["b"].SubmitRunSpec("r", run) }()
		// The registration group is stamped once the stamper knows the run.
		deadline := time.Now().Add(10 * time.Second)
		for _, err := h.nodes[stamper].RunInfo("r"); err != nil; _, err = h.nodes[stamper].RunInfo("r") {
			if time.Now().After(deadline) {
				t.Fatalf("the stamper never registered the run: %v", err)
			}
			time.Sleep(time.Millisecond)
		}
		status := ""
		if !behind {
			if err := <-errc; err != nil {
				t.Fatalf("submit: %v", err)
			}
			info, _ := h.nodes["b"].RunInfo("r")
			status = info.Status
		}
		release()
		if behind {
			if err := <-errc; err != nil {
				t.Fatalf("submit: %v", err)
			}
		}
		waitRunDone(t, h.nodes["b"], "r", 10*time.Second)
		h.waitIdle(stamper, 10*time.Second)
		h.assertStoresIdentical()
		return h, status
	}

	clear, status := register(t, false, nil)
	if status != "done" {
		t.Fatalf("unobstructed registration returned with the run %q, want done", status)
	}
	want := clear.rawStore(stamper)

	t.Run("stale read", func(t *testing.T) {
		// b applies nothing from the hold to the release: it reads the
		// seed's key as missing.
		h, _ := register(t, true, func(h *harness) func() { return holdReplication(h, "b") })
		if got := h.regs["b"].Snapshot()[obs.MClusterStaleSubmissions]; got == 0 {
			t.Errorf("the admission window was not stale")
		}
		if got := h.rawStore(stamper); !bytes.Equal(got, want) {
			t.Errorf("store after the stale admission window:\n%s\nwant\n%s", got, want)
		}
	})

	t.Run("paused key", func(t *testing.T) {
		h, status := register(t, false, func(h *harness) func() {
			h.nodes[stamper].PauseKeys(paused)
			return func() { h.nodes[stamper].ReleaseKeys(paused) }
		})
		if status != "active" {
			t.Errorf("registration returned with the run %q while one of its keys was quiesced, want active", status)
		}
		if got := h.regs["b"].Snapshot()[obs.MClusterRunsDoneAtAdmission]; got != 0 {
			t.Errorf("%s = %v with the run's key quiesced, want 0", obs.MClusterRunsDoneAtAdmission, got)
		}
		if got := h.rawStore(stamper); !bytes.Equal(got, want) {
			t.Errorf("store after the paused admission window:\n%s\nwant\n%s", got, want)
		}
	})
}

// holdReplication keeps every record from reaching follower id — the
// stamper's pushes into it and the pulls it falls back to — until the
// returned release is called.
func holdReplication(h *harness, id string) (release func()) {
	gate := make(chan struct{})
	hold := func(at, method string) {
		inner := h.slots[at].h.Load().(handlerBox).h
		h.slots[at].set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == method && r.URL.Path == "/internal/v1/commits" {
				<-gate
			}
			inner.ServeHTTP(w, r)
		}))
	}
	hold(id, http.MethodPost)
	hold(cluster.NewRing(h.ids).Stamper(), http.MethodGet)
	return func() { close(gate) }
}

// Two admission windows speculated from the same replica position both
// commit whole at admission, with no stale verdict: the one stamped second
// lands at LSNs its replica could not foresee, but a job's entries are
// stamped contiguously and the stamper places each in-window read at the
// LSN its writer got. Holding replication into the admission node pins
// both speculations to one position.
func TestAdmissionWindowsFromOnePosition(t *testing.T) {
	ids := []string{"a", "b", "c"}
	h := startCluster(t, ids, false, nil)
	stamper := cluster.NewRing(ids).Stamper()
	keys := keysByOwner(ids, 4)
	release := holdReplication(h, "b")
	errc := make(chan error, 2)
	for i, run := range []string{"first", "second"} {
		// Each run reads in its second task what its first one wrote.
		chain := []string{keys["a"][i], keys["c"][i], keys["b"][i]}
		go func() { errc <- h.nodes["b"].SubmitRunSpec(run, chainSpec(chain, int64(10*i))) }()
		deadline := time.Now().Add(10 * time.Second)
		for _, err := h.nodes[stamper].RunInfo(run); err != nil; _, err = h.nodes[stamper].RunInfo(run) {
			if time.Now().After(deadline) {
				t.Fatalf("the stamper never registered %s: %v", run, err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	release()
	for range 2 {
		if err := <-errc; err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	snap := h.regs["b"].Snapshot()
	if got := snap[obs.MClusterRunsDoneAtAdmission]; got != 2 {
		t.Errorf("%v of 2 runs done at admission", got)
	}
	if got := snap[obs.MClusterStaleSubmissions]; got != 0 {
		t.Errorf("%v stale verdicts for windows that read only their own writes", got)
	}
	h.waitIdle(stamper, 10*time.Second)
	h.assertStoresIdentical()
}
