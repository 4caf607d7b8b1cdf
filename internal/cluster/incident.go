package cluster

import (
	"fmt"
	"sort"

	"selfheal/internal/wlog"
)

// incidentWorker is the stamper's incident loop, the cluster's one alert
// queue and one incident leader: every node admits its alerts here. It
// drains the bounded queue in batches and runs each batch through the full
// pause → repair → release sequence, one incident at a time, so no key is
// ever held by two incidents.
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

// runIncident leads one incident on the stamper: it pauses the damaged keys
// at the admission gate (§IV partial quiescence — an executor whose window
// touches one, wherever it runs, is answered paused once the keys are
// released, and a clean node's READ of a damaged key is held alike),
// computes the repair once at the stream head and stamps it as an adopt
// record, then releases the keys. A repair the stamper refuses is counted
// here, once in the cluster.
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
	n.st.gate.Pause(keys)
	n.o.keysPaused(len(keys))
	if _, err := n.st.SubmitRepair(n.cfg.NodeID, bad); err != nil {
		n.rep.tally.Fail(fmt.Errorf("cluster: repair of %v: %w", bad, err))
	}
	if n.cfg.QuiesceHold > 0 {
		n.sleep(n.cfg.QuiesceHold)
	}
	n.o.keysPaused(0)
	n.st.gate.Release(keys)
}
