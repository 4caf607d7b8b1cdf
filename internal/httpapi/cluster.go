package httpapi

import (
	"net/http"

	"selfheal/internal/obs"
)

// ClusterNode is the surface a cluster member exposes to the public API:
// the full chaos-capable backend plus the topology document. The concrete
// implementation is internal/cluster.Node; the interface keeps httpapi free
// of a cluster dependency (the import runs the other way).
type ClusterNode interface {
	ChaosBackend
	// ClusterDoc reports membership, the sequencer identity and each
	// member's replication health (GET /api/v1/cluster).
	ClusterDoc() any
}

// ClusterServer assembles the client-facing handler of one cluster node:
// the stable v1 API and liveness probe, the chaos surface (the
// cluster equivalence fuzz harness drives nodes through it) and the cluster
// topology route. Mount it next to Node.InternalHandler on the same
// listener.
func ClusterServer(reg *obs.Registry, node ClusterNode) http.Handler {
	fams := []string{FamV1, FamChaos, FamCluster}
	return assemble(reg, fams, func(m *apiMux) {
		v1Routes(m, node, fams)
		chaosRoutes(m, node)
		m.handle("GET", "/api/v1/cluster", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, node.ClusterDoc())
		})
	})
}
