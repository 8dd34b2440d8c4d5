package netsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/mayflower-dfs/mayflower/internal/maxmin"
	"github.com/mayflower-dfs/mayflower/internal/testutil"
	"github.com/mayflower-dfs/mayflower/internal/topology"
)

const tol = 1e-6

func near(a, b float64) bool { return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b)) }

func newSim(t *testing.T) *Sim {
	t.Helper()
	topo, err := topology.New(topology.PaperTestbed(8))
	if err != nil {
		t.Fatalf("topology.New: %v", err)
	}
	return New(topo)
}

// pathBetween returns the first shortest path between two hosts.
func pathBetween(t *testing.T, s *Sim, a, b topology.NodeID) topology.Path {
	t.Helper()
	paths := s.Topology().ShortestPaths(a, b)
	if len(paths) == 0 {
		t.Fatalf("no path between %v and %v", a, b)
	}
	return paths[0]
}

// downlinkOf returns the one link into a host: its edge switch's port.
func downlinkOf(topo *topology.Topology, h topology.NodeID) topology.LinkID {
	for _, l := range topo.Links() {
		if l.To == h {
			return l.ID
		}
	}
	panic("host has no downlink")
}

func TestSingleFlowCompletionTime(t *testing.T) {
	s := newSim(t)
	topo := s.Topology()
	src := topo.HostAt(0, 0, 0)
	dst := topo.HostAt(0, 0, 1) // same rack: 1 Gbps bottleneck

	var done float64 = -1
	s.StartFlow(FlowConfig{
		Links:      pathBetween(t, s, src, dst),
		Bits:       1e9, // 1 Gb over 1 Gbps = 1 s
		OnComplete: func(end float64) { done = end },
	})
	s.Run()
	if !near(done, 1.0) {
		t.Errorf("completion time = %g, want 1.0", done)
	}
	if s.NumActiveFlows() != 0 {
		t.Errorf("NumActiveFlows = %d after Run", s.NumActiveFlows())
	}
}

func TestTwoFlowsShareBottleneck(t *testing.T) {
	s := newSim(t)
	topo := s.Topology()
	src := topo.HostAt(0, 0, 0)
	dst := topo.HostAt(0, 0, 1)
	path := pathBetween(t, s, src, dst)

	var t1, t2 float64
	s.StartFlow(FlowConfig{Links: path, Bits: 1e9, OnComplete: func(e float64) { t1 = e }})
	s.StartFlow(FlowConfig{Links: path, Bits: 1e9, OnComplete: func(e float64) { t2 = e }})
	s.Run()
	// Both share the 1 Gbps host downlink equally: each runs at 0.5 Gbps
	// until both finish at t=2.
	if !near(t1, 2.0) || !near(t2, 2.0) {
		t.Errorf("completions = %g, %g; want 2.0, 2.0", t1, t2)
	}
}

func TestShortFlowReleasesBandwidth(t *testing.T) {
	s := newSim(t)
	topo := s.Topology()
	src := topo.HostAt(0, 0, 0)
	dst := topo.HostAt(0, 0, 1)
	path := pathBetween(t, s, src, dst)

	var tShort, tLong float64
	s.StartFlow(FlowConfig{Links: path, Bits: 0.5e9, OnComplete: func(e float64) { tShort = e }})
	s.StartFlow(FlowConfig{Links: path, Bits: 1e9, OnComplete: func(e float64) { tLong = e }})
	s.Run()
	// Short: 0.5 Gb at 0.5 Gbps → done at t=1. Long: 0.5 Gb delivered by
	// t=1, the rest at full rate → 1 + 0.5 = 1.5 s.
	if !near(tShort, 1.0) {
		t.Errorf("short completion = %g, want 1.0", tShort)
	}
	if !near(tLong, 1.5) {
		t.Errorf("long completion = %g, want 1.5", tLong)
	}
}

func TestLateArrivalSlowsExistingFlow(t *testing.T) {
	s := newSim(t)
	topo := s.Topology()
	src := topo.HostAt(0, 0, 0)
	dst := topo.HostAt(0, 0, 1)
	path := pathBetween(t, s, src, dst)

	var tFirst float64
	s.StartFlow(FlowConfig{Links: path, Bits: 1e9, OnComplete: func(e float64) { tFirst = e }})
	s.Schedule(0.5, func() {
		s.StartFlow(FlowConfig{Links: path, Bits: 1e9})
	})
	s.Run()
	// First flow: 0.5 Gb alone (0.5 s), remaining 0.5 Gb at half rate
	// (1 s) → finishes at 1.5 s.
	if !near(tFirst, 1.5) {
		t.Errorf("first completion = %g, want 1.5", tFirst)
	}
}

func TestCancelFlowRestoresRate(t *testing.T) {
	s := newSim(t)
	topo := s.Topology()
	src := topo.HostAt(0, 0, 0)
	dst := topo.HostAt(0, 0, 1)
	path := pathBetween(t, s, src, dst)

	var tFirst float64
	s.StartFlow(FlowConfig{Links: path, Bits: 1e9, OnComplete: func(e float64) { tFirst = e }})
	victim := s.StartFlow(FlowConfig{Links: path, Bits: 1e9, OnComplete: func(float64) {
		t.Error("cancelled flow ran its completion callback")
	}})
	s.Schedule(1.0, func() { s.CancelFlow(victim) })
	s.Run()
	// First flow: 0.5 Gb in the first second (shared), then full rate →
	// 1 + 0.5 = 1.5 s.
	if !near(tFirst, 1.5) {
		t.Errorf("first completion = %g, want 1.5", tFirst)
	}
	// Cancelling again is a no-op.
	s.CancelFlow(victim)
}

// TestRatesFollowFlowsThroughChurn: through random admissions and
// cancellations every active flow's FlowRate is its max-min share over
// the active flows, so the active list and the rate table stay in step
// row for row.
func TestRatesFollowFlowsThroughChurn(t *testing.T) {
	s := newSim(t)
	topo := s.Topology()
	hosts := topo.Hosts()
	caps := make([]float64, topo.NumLinks())
	for _, l := range topo.Links() {
		caps[l.ID] = l.Capacity
	}
	r := testutil.Rand(t, 5)
	var ids []FlowID
	var flows []maxmin.Flow
	for step := 0; step < 300; step++ {
		if len(ids) > 0 && r.Intn(3) == 0 {
			k := r.Intn(len(ids))
			s.CancelFlow(ids[k])
			ids[k], flows[k] = ids[len(ids)-1], flows[len(flows)-1]
			ids, flows = ids[:len(ids)-1], flows[:len(flows)-1]
		} else {
			src, dst := hosts[r.Intn(len(hosts))], hosts[r.Intn(len(hosts))]
			if src == dst {
				continue
			}
			paths := topo.ShortestPaths(src, dst)
			path := paths[r.Intn(len(paths))]
			links := make([]int, len(path))
			for i, l := range path {
				links[i] = int(l)
			}
			ids = append(ids, s.StartFlow(FlowConfig{Links: path, Bits: 1e15}))
			flows = append(flows, maxmin.Flow{Links: links, Demand: math.Inf(1)})
		}
		want := maxmin.Allocate(caps, flows)
		for i, id := range ids {
			if got := s.FlowRate(id); !near(got, want[i]) {
				t.Fatalf("step %d: FlowRate(%d) = %g, want %g", step, id, got, want[i])
			}
		}
	}
}

func TestCrossPodPathBottleneck(t *testing.T) {
	s := newSim(t)
	topo := s.Topology()
	src := topo.HostAt(0, 0, 0)
	dst := topo.HostAt(1, 0, 0)
	path := pathBetween(t, s, src, dst)

	var done float64
	s.StartFlow(FlowConfig{Links: path, Bits: 1e9, OnComplete: func(e float64) { done = e }})
	s.Run()
	// At 8:1 oversubscription the agg-core links are 500 Mbps, so a lone
	// cross-pod flow takes 2 s for 1 Gb.
	if !near(done, 2.0) {
		t.Errorf("completion = %g, want 2.0", done)
	}
}

func TestFlowCountersMatchProgress(t *testing.T) {
	s := newSim(t)
	topo := s.Topology()
	src := topo.HostAt(0, 0, 0)
	dst := topo.HostAt(0, 0, 1)
	path := pathBetween(t, s, src, dst)

	id := s.StartFlow(FlowConfig{Links: path, Bits: 1e9})
	s.RunUntil(0.25)
	if got := s.FlowTransferred(id); !near(got, 0.25e9) {
		t.Errorf("FlowTransferred = %g, want 0.25e9", got)
	}
	if got := s.FlowRemaining(id); !near(got, 0.75e9) {
		t.Errorf("FlowRemaining = %g, want 0.75e9", got)
	}
	if got := s.FlowRate(id); !near(got, 1e9) {
		t.Errorf("FlowRate = %g, want 1e9", got)
	}
	for _, l := range path {
		if got := s.LinkTransferred(l); !near(got, 0.25e9) {
			t.Errorf("LinkTransferred(%d) = %g, want 0.25e9", l, got)
		}
		if got := s.LinkRate(l); !near(got, 1e9) {
			t.Errorf("LinkRate(%d) = %g, want 1e9", l, got)
		}
	}
	s.Run()
	if got := s.FlowTransferred(id); got != 0 {
		t.Errorf("FlowTransferred after completion = %g, want 0 (entry evicted)", got)
	}
	for _, l := range path {
		if got := s.LinkTransferred(l); !near(got, 1e9) {
			t.Errorf("LinkTransferred(%d) = %g, want 1e9", l, got)
		}
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	s := newSim(t)
	s.RunUntil(3.5)
	if !near(s.Now(), 3.5) {
		t.Errorf("Now = %g, want 3.5", s.Now())
	}
	fired := false
	s.Schedule(4.0, func() { fired = true })
	s.RunUntil(3.9)
	if fired {
		t.Error("event at t=4 fired before RunUntil(3.9) completed")
	}
	s.RunUntil(4.0)
	if !fired {
		t.Error("event at t=4 did not fire by RunUntil(4.0)")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := newSim(t)
	s.RunUntil(1)
	defer func() {
		if recover() == nil {
			t.Error("Schedule in the past did not panic")
		}
	}()
	s.Schedule(0.5, func() {})
}

func TestStartFlowNegativePanics(t *testing.T) {
	s := newSim(t)
	defer func() {
		if recover() == nil {
			t.Error("StartFlow with negative size did not panic")
		}
	}()
	s.StartFlow(FlowConfig{Bits: -1})
}

func TestZeroSizeFlowCompletesImmediately(t *testing.T) {
	s := newSim(t)
	topo := s.Topology()
	path := pathBetween(t, s, topo.HostAt(0, 0, 0), topo.HostAt(0, 0, 1))
	var done float64 = -1
	s.StartFlow(FlowConfig{Links: path, Bits: 0, OnComplete: func(e float64) { done = e }})
	s.Run()
	if !near(done, 0) {
		t.Errorf("zero-size completion = %g, want 0", done)
	}
}

func TestCompletionCallbackCanStartFlows(t *testing.T) {
	s := newSim(t)
	topo := s.Topology()
	path := pathBetween(t, s, topo.HostAt(0, 0, 0), topo.HostAt(0, 0, 1))

	var second float64
	s.StartFlow(FlowConfig{Links: path, Bits: 1e9, OnComplete: func(float64) {
		s.StartFlow(FlowConfig{Links: path, Bits: 1e9, OnComplete: func(e float64) { second = e }})
	}})
	s.Run()
	if !near(second, 2.0) {
		t.Errorf("chained completion = %g, want 2.0", second)
	}
}

func TestEventOrderDeterministic(t *testing.T) {
	s := newSim(t)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Schedule(1.0, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("event order %v, want ascending schedule order", order)
		}
	}
}

// TestManyFlowsConservation property-checks that total delivered bits equal
// the sum of flow sizes and that no host downlink ever carried more than
// its capacity times the elapsed time.
func TestManyFlowsConservation(t *testing.T) {
	topo, err := topology.New(topology.PaperTestbed(8))
	if err != nil {
		t.Fatal(err)
	}
	hosts := topo.Hosts()

	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := New(topo)
		var total float64
		n := 3 + r.Intn(20)
		var lastEnd float64
		for i := 0; i < n; i++ {
			src := hosts[r.Intn(len(hosts))]
			dst := hosts[r.Intn(len(hosts))]
			if src == dst {
				continue
			}
			paths := topo.ShortestPaths(src, dst)
			path := paths[r.Intn(len(paths))]
			bits := 1e6 * (1 + r.Float64()*100)
			total += bits
			start := r.Float64() * 2
			s.Schedule(start, func() {
				s.StartFlow(FlowConfig{Links: path, Bits: bits, OnComplete: func(e float64) {
					if e > lastEnd {
						lastEnd = e
					}
				}})
			})
		}
		s.Run()
		if s.NumActiveFlows() != 0 {
			t.Logf("seed %d: %d flows still active after Run", seed, s.NumActiveFlows())
			return false
		}
		var delivered float64
		for _, h := range hosts {
			down := downlinkOf(topo, h)
			bits := s.LinkTransferred(down)
			delivered += bits
			if bits > topo.Link(down).Capacity*lastEnd*(1+tol)+tol {
				t.Logf("seed %d: downlink of %v carried %g bits in %g s, over capacity", seed, h, bits, lastEnd)
				return false
			}
		}
		if math.Abs(delivered-total) > tol*(1+total) {
			t.Logf("seed %d: delivered %g bits of %g started", seed, delivered, total)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: testutil.Rand(t, 17)}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSimThousandFlows(b *testing.B) {
	topo, err := topology.New(topology.PaperTestbed(8))
	if err != nil {
		b.Fatal(err)
	}
	hosts := topo.Hosts()
	r := testutil.Rand(b, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(topo)
		for j := 0; j < 1000; j++ {
			src := hosts[r.Intn(len(hosts))]
			dst := hosts[r.Intn(len(hosts))]
			if src == dst {
				continue
			}
			paths := topo.ShortestPaths(src, dst)
			path := paths[r.Intn(len(paths))]
			start := r.Float64() * 10
			s.Schedule(start, func() {
				s.StartFlow(FlowConfig{Links: path, Bits: 256e6})
			})
		}
		s.Run()
	}
}

// TestCounterDerivedBandwidthMatchesRate validates the observation path
// the Flowserver depends on: bandwidth computed from byte-counter deltas
// over a polling interval equals the ground-truth allocated rate while
// the flow set is stable.
func TestCounterDerivedBandwidthMatchesRate(t *testing.T) {
	s := newSim(t)
	topo := s.Topology()
	path := pathBetween(t, s, topo.HostAt(0, 0, 0), topo.HostAt(0, 0, 1))

	a := s.StartFlow(FlowConfig{Links: path, Bits: 10e9})
	b := s.StartFlow(FlowConfig{Links: path, Bits: 10e9})

	prevA, prevB := s.FlowTransferred(a), s.FlowTransferred(b)
	prevT := s.Now()
	for poll := 0; poll < 4; poll++ {
		s.RunUntil(prevT + 0.5)
		curA, curB := s.FlowTransferred(a), s.FlowTransferred(b)
		dt := s.Now() - prevT
		measuredA := (curA - prevA) / dt
		measuredB := (curB - prevB) / dt
		if !near(measuredA, s.FlowRate(a)) {
			t.Fatalf("poll %d: measured %g vs rate %g", poll, measuredA, s.FlowRate(a))
		}
		if !near(measuredB, s.FlowRate(b)) {
			t.Fatalf("poll %d: measured %g vs rate %g", poll, measuredB, s.FlowRate(b))
		}
		if !near(measuredA+measuredB, 1e9) {
			t.Fatalf("poll %d: combined measured %g, want link capacity", poll, measuredA+measuredB)
		}
		prevA, prevB, prevT = curA, curB, s.Now()
	}
}

// TestLinkRateSums checks LinkRate equals the sum of the rates of flows
// crossing the link.
func TestLinkRateSums(t *testing.T) {
	s := newSim(t)
	topo := s.Topology()
	src1, src2, dst := topo.HostAt(0, 0, 0), topo.HostAt(0, 0, 2), topo.HostAt(0, 0, 1)
	p1 := pathBetween(t, s, src1, dst)
	p2 := pathBetween(t, s, src2, dst)

	a := s.StartFlow(FlowConfig{Links: p1, Bits: 1e9})
	b := s.StartFlow(FlowConfig{Links: p2, Bits: 1e9})
	down := p1[len(p1)-1] // both paths end on dst's downlink
	if got, want := s.LinkRate(down), s.FlowRate(a)+s.FlowRate(b); !near(got, want) {
		t.Fatalf("LinkRate = %g, want %g", got, want)
	}
	if !near(s.LinkRate(down), 1e9) {
		t.Fatalf("shared downlink rate = %g, want saturated", s.LinkRate(down))
	}
}

// TestRunReportsStalledFlows checks that Run does not return silently when
// the event queue drains with zero-rate flows still active (a flow starved
// by a dead link would otherwise hang the experiment invisibly).
func TestRunReportsStalledFlows(t *testing.T) {
	s := newSim(t)
	topo := s.Topology()
	src, dst := topo.HostAt(0, 0, 0), topo.HostAt(0, 0, 1)
	path := pathBetween(t, s, src, dst)

	// Kill the destination downlink: the flow is admitted but allocated
	// zero bandwidth and can never complete.
	s.SetLinkCapacity(path[len(path)-1], 0)
	completed := false
	id := s.StartFlow(FlowConfig{Links: path, Bits: 1e9, OnComplete: func(float64) { completed = true }})
	if r := s.FlowRate(id); r != 0 {
		t.Fatalf("starved flow rate = %g, want 0", r)
	}

	err := s.Run()
	if err == nil {
		t.Fatal("Run returned nil with a stalled flow active")
	}
	if completed {
		t.Error("starved flow reported completion")
	}
	if got := s.Stalled(); len(got) != 1 || got[0] != id {
		t.Errorf("Stalled() = %v, want [%d]", got, id)
	}

	// Reviving the link lets the flow finish and clears the stall.
	s.SetLinkCapacity(path[len(path)-1], 1e9)
	if err := s.Run(); err != nil {
		t.Fatalf("Run after reviving link: %v", err)
	}
	if !completed || len(s.Stalled()) != 0 {
		t.Errorf("completed=%v stalled=%v after revival", completed, s.Stalled())
	}
}

// TestSetLinkCapacityNegativePanics pins the contract that capacities are
// non-negative.
func TestSetLinkCapacityNegativePanics(t *testing.T) {
	s := newSim(t)
	defer func() {
		if recover() == nil {
			t.Error("negative capacity did not panic")
		}
	}()
	s.SetLinkCapacity(0, -1)
}
