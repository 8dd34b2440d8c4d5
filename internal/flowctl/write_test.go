package flowctl

import (
	"errors"
	"math"
	"testing"

	"github.com/mayflower-dfs/mayflower/internal/flowserver"
	"github.com/mayflower-dfs/mayflower/internal/topology"
)

// oneShard is the default control plane: a single shard owning every
// pod.
func oneShard(t *testing.T, topo *topology.Topology) *Shard {
	t.Helper()
	s, err := NewShard(topo, ShardConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// writeTopo is a one-pod, two-rack, two-agg fabric (the figure-2 shape
// without its background flows).
func writeTopo(t *testing.T) *topology.Topology {
	t.Helper()
	topo, err := topology.New(topology.Config{
		Pods: 1, RacksPerPod: 2, HostsPerRack: 2, AggsPerPod: 2, Cores: 1,
		EdgeLinkBps: 10, EdgeAggLinkBps: 10, AggCoreLinkBps: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestSelectWritePipelineOrdersByCost congests one target's downlink and
// checks the pipeline streams to the uncongested target first.
func TestSelectWritePipelineOrdersByCost(t *testing.T) {
	topo := writeTopo(t)
	srv := oneShard(t, topo)
	source := topo.HostAt(0, 0, 0)
	slow := topo.HostAt(0, 0, 1) // same rack, but congested below
	fast := topo.HostAt(0, 1, 0) // cross rack, idle

	// Saturate the congested target's downlink with a long-lived flow.
	toSlow := topo.ShortestPaths(source, slow)[0]
	srv.Server().CommitForeign(1000, toSlow[len(toSlow)-1:], 1000, math.Inf(1))

	as, err := srv.SelectWritePipeline(source, []topology.NodeID{slow, fast}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 2 {
		t.Fatalf("got %d assignments, want 2", len(as))
	}
	if as[0].Replica != fast || as[1].Replica != slow {
		t.Fatalf("pipeline order = [%d, %d], want idle target %d first (congested %d last)",
			as[0].Replica, as[1].Replica, fast, slow)
	}
	if as[0].EstimatedBw <= as[1].EstimatedBw {
		t.Errorf("first hop bw %g not greater than congested hop bw %g",
			as[0].EstimatedBw, as[1].EstimatedBw)
	}
	if srv.Server().NumFlows() != 3 {
		t.Errorf("NumFlows = %d, want 3 (background + two hops)", srv.Server().NumFlows())
	}
	for _, a := range as {
		srv.FlowFinished(a.FlowID)
	}
	if srv.Server().NumFlows() != 1 {
		t.Errorf("NumFlows after finish = %d, want 1", srv.Server().NumFlows())
	}
}

// TestSelectWritePipelineSpreadsAggLinks checks each hop is committed
// before the next is scored: two hops to the same remote rack should take
// different aggregation paths, because the second sees the first's load.
func TestSelectWritePipelineSpreadsAggLinks(t *testing.T) {
	// Fat edge links so the aggregation tier — where the two hops can
	// diverge — is the bottleneck, not the shared source uplink.
	topo, err := topology.New(topology.Config{
		Pods: 1, RacksPerPod: 2, HostsPerRack: 2, AggsPerPod: 2, Cores: 1,
		EdgeLinkBps: 40, EdgeAggLinkBps: 10, AggCoreLinkBps: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := oneShard(t, topo)
	source := topo.HostAt(0, 0, 0)
	t1 := topo.HostAt(0, 1, 0)
	t2 := topo.HostAt(0, 1, 1)

	as, err := srv.SelectWritePipeline(source, []topology.NodeID{t1, t2}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 2 {
		t.Fatalf("got %d assignments, want 2", len(as))
	}
	// Both paths leave on the same source uplink but must diverge at the
	// aggregation tier.
	if as[0].Path[1] == as[1].Path[1] {
		t.Errorf("both hops took agg link %d; want the second hop to avoid the first's load", as[0].Path[1])
	}
}

// TestSelectWritePipelineLocalTarget checks a target co-located with the
// source yields a local assignment and registers no flow.
func TestSelectWritePipelineLocalTarget(t *testing.T) {
	topo := writeTopo(t)
	srv := oneShard(t, topo)
	source := topo.HostAt(0, 0, 0)

	as, err := srv.SelectWritePipeline(source, []topology.NodeID{source, topo.HostAt(0, 0, 1)}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 2 {
		t.Fatalf("got %d assignments, want 2", len(as))
	}
	if !as[0].Local() || !math.IsInf(as[0].EstimatedBw, 1) {
		t.Errorf("co-located target not assigned locally: %+v", as[0])
	}
	if as[1].Local() {
		t.Errorf("remote target assigned locally: %+v", as[1])
	}
	if srv.Server().NumFlows() != 1 {
		t.Errorf("NumFlows = %d, want 1 (local hop must not register)", srv.Server().NumFlows())
	}
	// Finishing the local assignment's id must be a harmless no-op.
	srv.FlowFinished(as[0].FlowID)
	if srv.Server().NumFlows() != 1 {
		t.Errorf("NumFlows after local finish = %d, want 1", srv.Server().NumFlows())
	}
}

// TestSelectWritePipelineErrors pins the argument validation.
func TestSelectWritePipelineErrors(t *testing.T) {
	topo := writeTopo(t)
	srv := oneShard(t, topo)
	if _, err := srv.SelectWritePipeline(topo.HostAt(0, 0, 0), nil, 6); !errors.Is(err, flowserver.ErrNoReplicas) {
		t.Errorf("empty targets: got %v, want flowserver.ErrNoReplicas", err)
	}
	if _, err := srv.SelectWritePipeline(topo.HostAt(0, 0, 0), []topology.NodeID{topo.HostAt(0, 0, 1)}, -1); err == nil {
		t.Error("negative bits: got nil error")
	}
}
