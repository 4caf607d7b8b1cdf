package cluster_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"selfheal/internal/data"
	"selfheal/internal/durable"
	"selfheal/internal/shard"
	"selfheal/internal/wf"
	"selfheal/internal/wfjson"
)

// TestRuntimesCaptureAlike: both runtimes capture through the one machine.
// A seeded serial episode — generated runs over a shared key pool, each run
// to its end before the next, and forges both under a run nobody registered
// and under a registered run's name — goes through a durable shard.Service
// and through a one-node cluster, and each checkpoints at the same LSN. The
// two snapshots' store chains, run frontiers and tombstones encode to
// identical bytes. What only one runtime keeps beside the machine — the
// stream position (Seq), the spec documents, the dependence graph and the
// pending alerts — is set aside.
func TestRuntimesCaptureAlike(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			dir := t.TempDir()
			svc, err := shard.NewDurable(shard.Config{Shards: 2}, dir, durable.Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			svc.Start()
			defer svc.Stop()
			h := startCluster(t, []string{"a"}, true, nil)
			node := h.nodes["a"]

			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			rng := rand.New(rand.NewSource(seed))
			gen := wf.GenConfig{Tasks: 6, Keys: 5, MaxReads: 2, MaxWrites: 2, BranchProb: 0.3, Prefix: "p_"}
			forges := 0
			for op := 0; op < 24; op++ {
				if op%5 == 4 {
					run := "intruder"
					if op%10 == 9 {
						run = fmt.Sprintf("r%d", op-1) // a registered run's name
					}
					k := gen.PoolKey(rng.Intn(gen.Keys))
					task := fmt.Sprintf("evil%d", op)
					if _, err := svc.InjectForged(run, wf.TaskID(task), []data.Key{k}, map[data.Key]data.Value{k: data.Value(-op)}); err != nil {
						t.Fatal(err)
					}
					if _, err := node.InjectForged(run, task, []string{string(k)}, map[string]int64{string(k): int64(-op)}); err != nil {
						t.Fatal(err)
					}
					forges++
					continue
				}
				name := fmt.Sprintf("r%d", op)
				doc := wfjson.FromBlueprint(wf.GenerateBlueprint(name, gen, rng))
				if err := svc.SubmitRunSpec(name, doc); err != nil {
					t.Fatal(err)
				}
				if err := svc.WaitIdle(ctx); err != nil {
					t.Fatal(err)
				}
				if err := node.SubmitRunSpec(name, doc); err != nil {
					t.Fatal(err)
				}
				waitRunDone(t, node, name, 10*time.Second)
			}
			if a, b := svc.Log().Len(), len(node.Trace("intruder")); a == 0 || b == 0 {
				t.Fatalf("the episode committed %d entries, %d forged under intruder", a, b)
			}
			if err := svc.Checkpoint(ctx); err != nil {
				t.Fatal(err)
			}
			if err := node.Checkpoint(ctx); err != nil {
				t.Fatal(err)
			}

			_, single, err := durable.LatestSnapshotFile(dir, "snap-")
			if err != nil || single == nil {
				t.Fatalf("the shard stored no snapshot: %v", err)
			}
			_, clustered := h.latestSnapshot("a")
			if clustered == nil {
				t.Fatal("the cluster stored no snapshot")
			}
			var snaps [2]*durable.Snapshot
			for i, b := range [][]byte{single, clustered} {
				snap, err := durable.DecodeSnapshot(b)
				if err != nil {
					t.Fatal(err)
				}
				snap.Seq, snap.Specs, snap.Graph, snap.Alerts = 0, nil, durable.Snapshot{}.Graph, nil
				snaps[i] = snap
			}
			if snaps[0].Epoch != snaps[1].Epoch {
				t.Fatalf("the shard checkpointed at LSN %d, the cluster at %d", snaps[0].Epoch, snaps[1].Epoch)
			}
			for _, c := range []struct {
				what          string
				shard, nodeOf any
			}{
				{"chains", snaps[0].Chains, snaps[1].Chains},
				{"run frontiers", snaps[0].Runs, snaps[1].Runs},
				{"tombstones", snaps[0].Tombs, snaps[1].Tombs},
			} {
				if !reflect.DeepEqual(c.shard, c.nodeOf) {
					t.Errorf("%s differ:\n shard   %+v\n cluster %+v", c.what, c.shard, c.nodeOf)
				}
			}
			if !bytes.Equal(durable.EncodeSnapshot(snaps[0]), durable.EncodeSnapshot(snaps[1])) {
				t.Fatal("the two captures encode to different bytes")
			}
			if snaps[0].Tombs["intruder"].Status != durable.RunForged || forges == 0 {
				t.Fatalf("tombstones %+v: the forged run is not among them", snaps[0].Tombs)
			}
		})
	}
}
