package flowserver

import (
	"slices"

	"github.com/mayflower-dfs/mayflower/internal/topology"
)

// This file is the rest of the Flowserver surface the control plane
// (internal/flowctl) builds on beside Select. A flowctl shard owns the
// links of its pods and keeps a full Server as its model; a cross-pod
// flow touches two shards, so the coordinating shard commits its own
// sub-path through Select and needs to (a) register the remote half of a
// flow at the owning shard under the coordinator's id and (b) export its
// per-link load for the gossip digests remote coordinators score against.
// Flows lets the plane audit its estimates against the fabric.

// CommitForeign registers the local sub-path of a flow another server
// coordinated, under that coordinator's id, its demand capped at capBw.
// The id sequence is not advanced; callers must guarantee cross-server
// id uniqueness (flowctl does, via Options.IDBase/IDStride). A duplicate
// id is a retry of a commit that already applied: it returns the
// registered estimate and changes nothing.
func (s *Server) CommitForeign(id FlowID, links topology.Path, bits, capBw float64) (estimatedBw float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.flows[id]; ok {
		return f.bw
	}
	sc := s.evalPathCapped(links, bits, capBw)
	s.commitAs(id, links, sc, bits)
	return sc.bw
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

// Flows visits every flow in the model, in ascending id order, with its
// current bandwidth estimate. visit runs under the server's lock and
// must not call back into it.
func (s *Server) Flows(visit func(id FlowID, bw float64)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]FlowID, 0, len(s.flows))
	for id := range s.flows {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		visit(id, s.flows[id].bw)
	}
}
