package flowserver

import (
	"github.com/mayflower-dfs/mayflower/internal/topology"
)

// This file is the Flowserver surface the control plane
// (internal/flowctl) builds on. A flowctl shard owns the links of its
// pods and keeps a full Server as its model; cross-pod flows can touch
// two shards, so the coordinator needs to (a) score just the links it
// owns with the remote sub-path's share as a cap, (b) commit a flow onto
// an explicit link set, (c) register the remote half of a flow under
// the coordinator's id, and (d) export its per-link load for the gossip
// digests remote coordinators score against. The capped evaluation
// collapses to the uncapped Eq. 2 arithmetic at capBw = +Inf, which is
// what a shard owning the whole path — always, in a one-shard plane —
// passes.

// EvalPathCost scores placing a new flow of the given size on an
// arbitrary set of links, Eq. 2 style: the new flow's completion time
// plus the completion-time increase of the modeled flows sharing those
// links. capBw caps the new flow's demand — the bandwidth granted by
// links outside this server's model — and +Inf means uncapped. Nothing
// is registered.
func (s *Server) EvalPathCost(links topology.Path, bits, capBw float64) (cost, estimatedBw float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.evalPathCapped(0, links, bits, capBw)
	return c.cost, c.bw
}

// CommitPath registers a new flow on the given links with the next id
// from this server's sequence, applying SETBW freeze to the flow and to
// every modeled flow whose estimate the admission changed. capBw caps
// the flow's demand as in EvalPathCost. The links need not form a
// client-to-replica path — a flowctl coordinator commits only the
// sub-path it owns. The returned Assignment carries no replica.
func (s *Server) CommitPath(links topology.Path, bits, capBw float64) Assignment {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.evalPathCapped(0, links, bits, capBw)
	s.nextID += s.idStep
	return s.commitAs(s.nextID, c, bits)
}

// CommitForeign registers the local sub-path of a flow another server
// coordinated, under that coordinator's id. The id sequence is not
// advanced; callers must guarantee cross-server id uniqueness (flowctl
// does, via Options.IDBase/IDStride). A duplicate id is a retry of a
// commit that already applied: it returns the registered estimate and
// changes nothing.
func (s *Server) CommitForeign(id FlowID, links topology.Path, bits, capBw float64) (estimatedBw float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.flows[id]; ok {
		return f.bw
	}
	c := s.evalPathCapped(0, links, bits, capBw)
	a := s.commitAs(id, c, bits)
	return a.EstimatedBw
}

// AllocFlowID draws the next flow id from this server's sequence
// without registering anything. Local (zero network cost) assignments
// need an id for the caller's bookkeeping but no model entry.
func (s *Server) AllocFlowID() FlowID {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID += s.idStep
	return s.nextID
}

// LinkLoads visits every link's modeled load — the number of registered
// flows crossing it and the sum of their current bandwidth estimates —
// in ascending link order. Links with no flows are skipped. This is the
// raw material of flowctl's cross-shard utilization digests.
func (s *Server) LinkLoads(visit func(link int, flows int, sumBw float64)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for l, fs := range s.linkFlows {
		if len(fs) == 0 {
			continue
		}
		sum := 0.0
		for _, f := range fs {
			sum += f.bw
		}
		visit(l, len(fs), sum)
	}
}
