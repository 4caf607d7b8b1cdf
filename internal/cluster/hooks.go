package cluster

import (
	"fmt"

	"selfheal/internal/obs"
)

// hooks adapts the cluster's instrumentation points to the obs registry.
// Every method is safe on a zero value (nil registry): the registry and its
// primitives are nil-safe by design, so an unobserved node pays a nil check.
type hooks struct{ reg *obs.Registry }

func (h hooks) recordStamped(kind string) {
	h.reg.Counter(fmt.Sprintf("%s{kind=%q}", obs.MClusterRecordsStamped, kind)).Inc()
}

func (h hooks) recordsApplied(n int) {
	h.reg.Gauge(obs.MClusterRecordsApplied).Set(int64(n))
}

func (h hooks) replicationError(peer string) {
	h.reg.Counter(fmt.Sprintf("%s{peer=%q}", obs.MClusterReplicationErrors, peer)).Inc()
}

func (h hooks) replicationLag(peer string, lag int) {
	h.reg.Gauge(fmt.Sprintf("%s{peer=%q}", obs.MClusterReplicationLag, peer)).Set(int64(lag))
}

func (h hooks) proxied(route string) {
	h.reg.Counter(fmt.Sprintf("%s{route=%q}", obs.MClusterProxied, route)).Inc()
}

func (h hooks) stampBatch(n int) {
	h.reg.Histogram(obs.MClusterStampBatchSize, stampBatchBuckets).Observe(float64(n))
}

func (h hooks) replicationBytes(dir string, n int) {
	h.reg.Counter(fmt.Sprintf("%s{dir=%q}", obs.MClusterReplicationBytes, dir)).Add(int64(n))
}

func (h hooks) journalErrors(n int) { h.reg.Counter(obs.MClusterJournalErrors).Add(int64(n)) }

// stampBatchBuckets covers the group sizes the stamping loop produces:
// 1 (idle, degenerate batch) up to the whole pending queue under load.
var stampBatchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

func (h hooks) tokenSent()          { h.reg.Counter(obs.MClusterTokensSent).Inc() }
func (h hooks) tokenReceived()      { h.reg.Counter(obs.MClusterTokensReceived).Inc() }
func (h hooks) stale()              { h.reg.Counter(obs.MClusterStaleSubmissions).Inc() }
func (h hooks) pausedKeys(n int)    { h.reg.Gauge(obs.MClusterPausedKeys).Set(int64(n)) }
func (h hooks) incident()           { h.reg.Counter(obs.MClusterIncidents).Inc() }
func (h hooks) reconcilePickup()    { h.reg.Counter(obs.MClusterReconcilePickups).Inc() }
func (h hooks) runDoneAtAdmission() { h.reg.Counter(obs.MClusterRunsDoneAtAdmission).Inc() }
