package flowserver

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/mayflower-dfs/mayflower/internal/topology"
)

// TestRandomOperationSequences drives the Flowserver with random
// interleavings of selections, completions, splits, and stats polls, and
// checks the model invariants plus basic estimate sanity after every
// step.
func TestRandomOperationSequences(t *testing.T) {
	defer InstallRestoreAudit()()
	topo, err := topology.New(topology.PaperTestbed(8))
	if err != nil {
		t.Fatal(err)
	}
	hosts := topo.Hosts()

	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		clock := 0.0
		split := r.Intn(2) == 0
		srv := New(topo, Options{Now: func() float64 { return clock }})
		var live []FlowID
		for step := 0; step < 60; step++ {
			clock += r.Float64()
			switch r.Intn(4) {
			case 0, 1: // new read
				client := hosts[r.Intn(len(hosts))]
				replicas := make([]topology.NodeID, 0, 3)
				for len(replicas) < 3 {
					h := hosts[r.Intn(len(hosts))]
					if h != client {
						replicas = append(replicas, h)
					}
				}
				cands := candidates(topo, client, replicas...)
				bits := 1e6 * (1 + r.Float64()*2000)
				var as []Assignment
				var err error
				if split {
					as, err = srv.SelectSplit(cands, bits)
				} else {
					var a Assignment
					a, _, err = srv.Select(cands, bits)
					as = []Assignment{a}
				}
				if err != nil {
					t.Logf("seed %d step %d: select: %v", seed, step, err)
					return false
				}
				for _, a := range as {
					if a.EstimatedBw <= 0 {
						t.Logf("seed %d: non-positive estimate %g", seed, a.EstimatedBw)
						return false
					}
					if !a.Local() && a.EstimatedBw > topology.Gbps(1)+1 {
						t.Logf("seed %d: estimate %g above edge capacity", seed, a.EstimatedBw)
						return false
					}
					if !a.Local() {
						live = append(live, a.FlowID)
					}
				}
			case 2: // a flow finishes
				if len(live) > 0 {
					i := r.Intn(len(live))
					srv.FlowFinished(live[i])
					live = append(live[:i], live[i+1:]...)
				}
			case 3: // stats poll with plausible counters
				stats := make([]FlowStat, 0, len(live))
				for _, id := range live {
					stats = append(stats, FlowStat{
						ID:              id,
						TransferredBits: r.Float64() * 1e9,
					})
				}
				srv.UpdateFlowStats(clock, stats)
			}
			if err := srv.CheckInvariants(); err != nil {
				t.Logf("seed %d step %d: %v", seed, step, err)
				return false
			}
		}
		if srv.NumFlows() != len(live) {
			t.Logf("seed %d: NumFlows %d != live %d", seed, srv.NumFlows(), len(live))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(99))}); err != nil {
		t.Error(err)
	}
}

// TestEstimateBoundsUnderLoad checks that the new-flow estimate always
// lies between the fair-share floor (capacity divided by flows-plus-one
// on the busiest path link) and the bottleneck capacity.
func TestEstimateBoundsUnderLoad(t *testing.T) {
	topo, err := topology.New(topology.PaperTestbed(8))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(topo, Options{})
	src, dst := topo.HostAt(0, 0, 0), topo.HostAt(1, 0, 0)

	for load := 0; load < 12; load++ {
		paths := topo.ShortestPaths(src, dst)
		for _, p := range paths {
			_, bw := srv.PathCost(p, 256*8e6)
			if bw <= 0 {
				t.Fatalf("load %d: estimate %g", load, bw)
			}
			// Floor: even sharing one link with `load` flows leaves at
			// least cap/(load+1) under max-min.
			minCap := math.Inf(1)
			for _, l := range p {
				if c := topo.Link(l).Capacity; c < minCap {
					minCap = c
				}
			}
			if bw < minCap/float64(load+1)-1 {
				t.Fatalf("load %d: estimate %g below fair floor %g", load, bw, minCap/float64(load+1))
			}
			if bw > topology.Gbps(1)+1 {
				t.Fatalf("load %d: estimate %g above bottleneck", load, bw)
			}
		}
		selectOne(t, srv, candidates(topo, dst, src), 256*8e6)
	}
}

// TestMultiReplicaSplitConservation property-checks §4.3: whenever a read
// splits, the subflow sizes are positive and sum to the request, and the
// split is accepted only with distinct replicas.
func TestMultiReplicaSplitConservation(t *testing.T) {
	defer InstallRestoreAudit()()
	topo, err := topology.New(topology.PaperTestbed(8))
	if err != nil {
		t.Fatal(err)
	}
	hosts := topo.Hosts()

	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		srv := New(topo, Options{})
		// Random background load.
		for i := 0; i < r.Intn(20); i++ {
			a := hosts[r.Intn(len(hosts))]
			b := hosts[r.Intn(len(hosts))]
			if a == b {
				continue
			}
			if _, _, err := srv.Select(candidates(topo, a, b), 1e6*(1+r.Float64()*2000)); err != nil {
				return false
			}
		}
		client := hosts[r.Intn(len(hosts))]
		replicas := make([]topology.NodeID, 0, 3)
		for len(replicas) < 3 {
			h := hosts[r.Intn(len(hosts))]
			if h != client {
				replicas = append(replicas, h)
			}
		}
		bits := 1e6 * (1 + r.Float64()*4000)
		as, err := srv.SelectSplit(candidates(topo, client, replicas...), bits)
		if err != nil {
			return false
		}
		var total float64
		seen := make(map[topology.NodeID]bool)
		for _, a := range as {
			if a.Bits <= 0 {
				t.Logf("seed %d: non-positive subflow %g", seed, a.Bits)
				return false
			}
			total += a.Bits
			if seen[a.Replica] {
				t.Logf("seed %d: duplicate replica in split", seed)
				return false
			}
			seen[a.Replica] = true
		}
		if math.Abs(total-bits) > 1e-6*(1+bits) {
			t.Logf("seed %d: split sums to %g, want %g", seed, total, bits)
			return false
		}
		return srv.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Error(err)
	}
}

func TestPathCostMatchesManualExample(t *testing.T) {
	// Sanity against a hand-computed case distinct from Figure 2: one
	// background flow at 4 on a 10-capacity link, new 12-bit read.
	topo, err := topology.New(topology.Config{
		Pods: 1, RacksPerPod: 2, HostsPerRack: 1, AggsPerPod: 1, Cores: 1,
		EdgeLinkBps: 10, EdgeAggLinkBps: 10, AggCoreLinkBps: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(topo, Options{})
	src, dst := topo.HostAt(0, 0, 0), topo.HostAt(0, 1, 0)
	path := topo.ShortestPaths(src, dst)[0]
	srv.ForceFlow([]topology.LinkID{path[1]}, 8, 4)

	cost, bw := srv.PathCost(path, 12)
	// Water-fill {4, ∞} on 10: new flow gets 6, existing keeps 4 (its
	// demand) — no squeeze, so cost is just 12/6 = 2.
	if math.Abs(bw-6) > 1e-9 {
		t.Errorf("bw = %g, want 6", bw)
	}
	if math.Abs(cost-2) > 1e-9 {
		t.Errorf("cost = %g, want 2", cost)
	}

	// Add another background flow at 5: demands {4,5} on 10 → new flow
	// share water-fills to 3.33...; 4-flow drops to 3.33, 5-flow to 3.33.
	srv.ForceFlow([]topology.LinkID{path[1]}, 9, 5)
	cost, bw = srv.PathCost(path, 12)
	third := 10.0 / 3
	if math.Abs(bw-third) > 1e-9 {
		t.Errorf("bw = %g, want %g", bw, third)
	}
	// Cost = 12/(10/3) + [8/(10/3) − 8/4] + [9/(10/3) − 9/5]
	want := 12/third + (8/third - 2) + (9/third - 1.8)
	if math.Abs(cost-want) > 1e-9 {
		t.Errorf("cost = %g, want %g", cost, want)
	}

}
