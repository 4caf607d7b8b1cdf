package cluster

import (
	"context"
	"fmt"
	"sort"
	"time"

	"selfheal/internal/data"
	"selfheal/internal/wlog"
)

// incidentWorker is the per-node incident leader loop: it drains the
// bounded alert queue in batches and runs each batch through the full
// quiesce → repair → release sequence. A node only receives
// alerts it leads (the accused run's owner routes them here), so incident
// leadership is distributed per run.
func (n *Node) incidentWorker() {
	defer n.wg.Done()
	for {
		var first []wlog.InstanceID
		select {
		case <-n.stop:
			return
		case first = <-n.alertCh:
		}
		n.inIncident.Store(true)
		batch := [][]wlog.InstanceID{first}
	drain:
		for {
			select {
			case more := <-n.alertCh:
				batch = append(batch, more)
			default:
				break drain
			}
		}
		n.runIncident(batch)
		n.pendingAlerts.Add(-int64(len(batch)))
		n.alertsAnalyzed.Add(int64(len(batch)))
		n.inIncident.Store(false)
	}
}

// runIncident leads one incident: partial quiescence of the nodes owning
// the damaged keys, which the leader's own replica computes (every replica
// holds the same log), then the repair, which the stamper computes once and
// stamps as an adopt record, then release. Dead peers are tolerated at every
// step — the repair itself is sound regardless because it is computed at a
// fixed stream position. A repair the stamper refuses is counted here, once
// in the cluster.
func (n *Node) runIncident(batch [][]wlog.InstanceID) {
	n.o.incident()
	seen := make(map[wlog.InstanceID]bool)
	var bad []wlog.InstanceID
	for _, b := range batch {
		for _, id := range b {
			if !seen[id] {
				seen[id] = true
				bad = append(bad, id)
			}
		}
	}
	sort.Slice(bad, func(i, j int) bool { return bad[i] < bad[j] })

	keys := n.rep.DamageKeys(bad)

	// Quiesce only the nodes owning damaged keys (§IV partial quiescence),
	// plus the sequencer's admission gate: a clean node may still own a
	// task that READS a damaged key, and admission is where that is caught.
	targets := map[string]bool{n.ring.Stamper(): true}
	for _, k := range keys {
		targets[n.ring.OwnerOfKey(data.Key(k))] = true
	}
	tlist := sortedKeyList(targets)
	for _, t := range tlist {
		if t == n.cfg.NodeID {
			n.quiesceKeys(keys)
			continue
		}
		_ = n.client.quiesce(n.peerAddr(t), keys)
	}

	seq, err := n.submitRepair(bad)
	if err != nil {
		// Nothing was stamped: release at the current position.
		n.rep.tally.Fail(fmt.Errorf("cluster: repair of %v: %w", bad, err))
		seq = n.rep.Applied()
	} else {
		ctx, cancel := context.WithTimeout(n.stopCtx, 30*time.Second)
		_ = n.rep.WaitApplied(ctx, seq)
		cancel()
	}

	if n.cfg.QuiesceHold > 0 {
		n.sleep(n.cfg.QuiesceHold)
	}

	for _, t := range tlist {
		if t == n.cfg.NodeID {
			n.releaseKeys(keys, seq)
			continue
		}
		_ = n.client.release(n.peerAddr(t), keys, seq)
	}
}
