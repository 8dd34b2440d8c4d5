// Package flowctl is the flow control plane: the Flowserver run as one
// or more shards, each owning the links, switch counters, and
// committed-flow table for the pods the directory assigns it, reusing
// flowserver's Eq. 2 / max-min machinery per shard. One shard owning
// every pod — the default everywhere — is the paper's single logical
// controller, the degenerate case of this design rather than a second
// system: the same code with nothing remote to consult.
//
// The partition exploits a structural property of the three-tier
// topology: every directed link touches exactly one pod-resident node
// (host↔edge and edge↔agg links live wholly inside a pod; an agg↔core
// link belongs to its aggregation switch's pod), so "owns the pod"
// induces a clean partition of the link set. A shortest path between
// hosts in different pods therefore splits into exactly two owned
// sub-paths.
//
// Selections are coordinated by the requester-side shard — the shard
// owning the client's pod for reads, the writing host's pod for write
// pipelines. The coordinator lists the candidate paths, each split into
// the links it owns and a cap estimated from gossiped per-link
// utilization digests for the rest (bounded staleness: digests refresh
// on the stats-poll cadence, so a digest is never older than one poll
// interval plus the time since the last poll); its embedded Flowserver
// scores the owned links exactly (flowserver.Server.Select). Commits are
// exact everywhere: the coordinator commits its own sub-path and pushes
// the remote sub-path to its owning shard under the same globally
// unique flow id (flowserver.CommitForeign), so every shard's model
// stays truthful for the links it owns — staleness only ever degrades
// selection quality, never model integrity.
//
// A small directory maps pods to shards under an epoch-numbered lease:
// every ownership change bumps the epoch, and clients and dataservers
// cache (shard, epoch) routes they must revalidate on epoch change (see
// Router). When a shard misses its heartbeats, the directory promotes
// its pods to the next live shard and bumps the epoch; the promoted
// shard adopts the links with an empty model that repopulates from
// counter polls, and in-flight clients fall back to the degraded
// locality-order read path until they re-resolve.
package flowctl

import (
	"github.com/mayflower-dfs/mayflower/internal/flowserver"
	"github.com/mayflower-dfs/mayflower/internal/obs"
	"github.com/mayflower-dfs/mayflower/internal/topology"
)

// Metrics is the control plane's instrumentation. The selection, poll
// and freeze counters are the embedded Flowserver set, shared by every
// shard of one process and published once under "flowserver." names
// whatever the shard count; the fields here are what only a plane has:
// selection routing (pod-local vs cross-shard), foreign-commit traffic,
// and digest freshness, published under "flowctl." names.
type Metrics struct {
	Flowserver *flowserver.Metrics

	PodLocal           obs.Counter
	CrossShard         obs.Counter
	RemoteCommits      obs.Counter
	RemoteCommitErrors obs.Counter
	DigestRefreshes    obs.Counter
	// DigestAge observes, at every cross-shard commit, how stale the
	// consulted remote digest was (seconds on the model clock).
	DigestAge *obs.Histogram

	epoch *obs.Gauge
}

// NewMetrics creates an unregistered metrics set (the histograms must
// exist even without a registry).
func NewMetrics() *Metrics {
	return &Metrics{Flowserver: flowserver.NewMetrics(), DigestAge: obs.NewHistogram(1e-6, 10)}
}

// Register publishes the metrics into r.
func (m *Metrics) Register(r *obs.Registry) {
	m.Flowserver.Register(r)
	r.RegisterCounter("flowctl.pod_local_selections", &m.PodLocal)
	r.RegisterCounter("flowctl.cross_shard_selections", &m.CrossShard)
	r.RegisterCounter("flowctl.remote_commits", &m.RemoteCommits)
	r.RegisterCounter("flowctl.remote_commit_errors", &m.RemoteCommitErrors)
	r.RegisterCounter("flowctl.digest_refreshes", &m.DigestRefreshes)
	r.RegisterHistogram("flowctl.digest_age_seconds", m.DigestAge)
	m.epoch = r.Gauge("flowctl.epoch")
}

// setEpoch mirrors the ownership epoch a shard runs under into the
// registry when attached.
func (m *Metrics) setEpoch(e int64) {
	if m.epoch != nil {
		m.epoch.Set(e)
	}
}

// LinkPods maps every link to the pod that owns it: the pod of the
// link's single pod-resident endpoint (agg↔core links belong to the
// aggregation switch's pod). This is the static half of the ownership
// relation; the directory's pod→shard map is the dynamic half.
func LinkPods(topo *topology.Topology) []int {
	pods := make([]int, topo.NumLinks())
	for _, l := range topo.Links() {
		if p := topo.Node(l.From).Pod; p >= 0 {
			pods[l.ID] = p
		} else {
			pods[l.ID] = topo.Node(l.To).Pod
		}
	}
	return pods
}
