package emunet

import (
	"math"
	"sync"
	"testing"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/fabric"
	"github.com/mayflower-dfs/mayflower/internal/sdn"
	"github.com/mayflower-dfs/mayflower/internal/topology"
)

func testTopo(t *testing.T) *topology.Topology {
	t.Helper()
	topo, err := topology.New(topology.Config{
		Pods: 2, RacksPerPod: 2, HostsPerRack: 2, AggsPerPod: 2, Cores: 2,
		// Small rates so pacing effects are measurable in milliseconds.
		EdgeLinkBps: 8e6, EdgeAggLinkBps: 8e6, AggCoreLinkBps: 4e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func testNet(t *testing.T) *Network {
	t.Helper()
	return New(testTopo(t))
}

// testNetCompressed builds a network on a compressed clock: pacing tests
// assert fabric-time bounds (via the clock) while spending 1/speedup of
// that in wall time.
func testNetCompressed(t *testing.T, speedup float64) *Network {
	t.Helper()
	return NewWithClock(testTopo(t), fabric.NewScaledClock(speedup))
}

func pathFor(t *testing.T, n *Network, a, b topology.NodeID) topology.Path {
	t.Helper()
	paths := n.Topology().ShortestPaths(a, b)
	if len(paths) == 0 {
		t.Fatal("no path")
	}
	return paths[0]
}

func TestRegisterValidation(t *testing.T) {
	n := testNet(t)
	if err := n.RegisterFlow(0, nil); err == nil {
		t.Error("flow id 0 accepted")
	}
	if err := n.RegisterFlow(1, topology.Path{topology.LinkID(99999)}); err == nil {
		t.Error("invalid link accepted")
	}
}

func TestFairShareAcrossFlows(t *testing.T) {
	n := testNet(t)
	topo := n.Topology()
	src, dst := topo.HostAt(0, 0, 0), topo.HostAt(0, 0, 1)
	path := pathFor(t, n, src, dst)

	if err := n.RegisterFlow(1, path); err != nil {
		t.Fatal(err)
	}
	r1, ok := n.FlowRate(1)
	if !ok || math.Abs(r1-8e6) > 1 {
		t.Fatalf("solo rate = %g, want 8e6", r1)
	}
	if err := n.RegisterFlow(2, path); err != nil {
		t.Fatal(err)
	}
	r1, _ = n.FlowRate(1)
	r2, _ := n.FlowRate(2)
	if math.Abs(r1-4e6) > 1 || math.Abs(r2-4e6) > 1 {
		t.Fatalf("shared rates = %g, %g, want 4e6 each", r1, r2)
	}
	n.UnregisterFlow(2)
	r1, _ = n.FlowRate(1)
	if math.Abs(r1-8e6) > 1 {
		t.Fatalf("rate after release = %g, want 8e6", r1)
	}
	if n.NumFlows() != 1 {
		t.Fatalf("NumFlows = %d", n.NumFlows())
	}
	n.UnregisterFlow(99) // no-op
}

func TestLinkCapacityChangeReallocates(t *testing.T) {
	n := testNet(t)
	topo := n.Topology()
	path := pathFor(t, n, topo.HostAt(0, 0, 0), topo.HostAt(0, 0, 1))
	notified := 0
	n.SetRateNotify(func() { notified++ })
	if err := n.RegisterFlow(1, path); err != nil {
		t.Fatal(err)
	}
	n.SetLinkCapacity(path[0], 2e6)
	if r, _ := n.FlowRate(1); math.Abs(r-2e6) > 1 {
		t.Fatalf("rate after capacity cut = %g, want 2e6", r)
	}
	n.SetLinkCapacity(path[0], 0)
	if r, _ := n.FlowRate(1); r != 0 {
		t.Fatalf("rate on dead link = %g, want 0", r)
	}
	n.SetLinkCapacity(path[0], 8e6)
	if r, _ := n.FlowRate(1); math.Abs(r-8e6) > 1 {
		t.Fatalf("rate after restore = %g, want 8e6", r)
	}
	if notified != 4 { // register + three capacity changes
		t.Errorf("rate notify fired %d times, want 4", notified)
	}
}

// send moves n bytes through g the way the dataserver's send loop does,
// minus the bytes themselves.
func send(g fabric.Gate, n int64) {
	for n > 0 {
		q := g.Next(n)
		g.Sent(q)
		n -= q
	}
}

// TestGateQuantum: a quantum is 2 ms of the flow's share, never under the
// 16 KiB floor — so every rate up to 65.5 Mbps keeps the floor byte for
// byte — and never more than the caller has left to send.
func TestGateQuantum(t *testing.T) {
	for _, tc := range []struct {
		bps   float64
		limit int64
		want  int64
	}{
		{8e6, 1 << 30, 16 << 10},
		{16e6, 1 << 30, 16 << 10},
		{64e6, 1 << 30, 16 << 10},
		{1e9, 1 << 30, 250_000},
		{100e9, 1 << 20, 1 << 20},
		{8e6, 100, 100},
	} {
		n := testNetCompressed(t, 1000)
		topo := n.Topology()
		path := pathFor(t, n, topo.HostAt(0, 0, 0), topo.HostAt(0, 0, 1))
		for _, l := range path {
			n.SetLinkCapacity(l, tc.bps)
		}
		if err := n.RegisterFlow(1, path); err != nil {
			t.Fatal(err)
		}
		if got := n.Pace(1).Next(tc.limit); got != tc.want {
			t.Errorf("Next(%d) at %g bps = %d, want %d", tc.limit, tc.bps, got, tc.want)
		}
	}
}

func TestPacedWriterThroughput(t *testing.T) {
	// Compressed 8x: the ≈200 ms fabric-time transfer takes ≈25 ms wall.
	n := testNetCompressed(t, 8)
	topo := n.Topology()
	path := pathFor(t, n, topo.HostAt(0, 0, 0), topo.HostAt(0, 0, 1))
	if err := n.RegisterFlow(7, path); err != nil {
		t.Fatal(err)
	}

	// 8 Mbps = 1 MB/s; transferring 200 KB should take ≈200 ms fabric.
	const size = 200 << 10
	start := n.Clock().Now()
	send(n.Pace(7), size)
	elapsed := n.Clock().Now() - start
	if elapsed < 0.15 || elapsed > 0.6 {
		t.Errorf("transfer took %.3fs fabric, want ≈0.2s", elapsed)
	}
	if bits := n.FlowTransferred(7); bits != size*8 {
		t.Errorf("FlowTransferred = %g bits, want %d", bits, size*8)
	}
	if bits := n.LinkTransferred(path[0]); bits != size*8 {
		t.Errorf("LinkTransferred = %g bits, want %d", bits, size*8)
	}
}

func TestUnregisteredFlowUnpaced(t *testing.T) {
	n := testNet(t)
	for _, id := range []uint64{0, 42} {
		if g := n.Pace(id); g != nil {
			t.Errorf("Pace(%d) = %v, want no gate: an unregistered flow goes out unpaced", id, g)
		}
	}
}

func TestTwoFlowsShareLinkInTime(t *testing.T) {
	// Compressed 8x: ≈200 ms fabric each, ≈25 ms wall.
	n := testNetCompressed(t, 8)
	topo := n.Topology()
	path := pathFor(t, n, topo.HostAt(0, 0, 0), topo.HostAt(0, 0, 1))
	if err := n.RegisterFlow(1, path); err != nil {
		t.Fatal(err)
	}
	if err := n.RegisterFlow(2, path); err != nil {
		t.Fatal(err)
	}

	const size = 100 << 10 // 100 KB each at 0.5 MB/s ≈ 200 ms fabric
	var wg sync.WaitGroup
	durations := make([]float64, 2)
	for i, id := range []uint64{1, 2} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := n.Clock().Now()
			send(n.Pace(id), size)
			durations[i] = n.Clock().Now() - start
		}()
	}
	wg.Wait()
	for i, d := range durations {
		if d < 0.14 || d > 0.8 {
			t.Errorf("flow %d took %.3fs fabric, want ≈0.2s (half rate)", i+1, d)
		}
	}
}

func TestRateAdaptsMidTransfer(t *testing.T) {
	// Compressed 4x (modest: the mid-transfer event is timing-sensitive).
	n := testNetCompressed(t, 4)
	topo := n.Topology()
	path := pathFor(t, n, topo.HostAt(0, 0, 0), topo.HostAt(0, 0, 1))
	if err := n.RegisterFlow(1, path); err != nil {
		t.Fatal(err)
	}

	// Start at full rate; halfway through, a competitor arrives.
	const size = 200 << 10 // alone: ≈200 ms fabric; competitor for 2nd half: ≈300 ms
	done := make(chan float64, 1)
	go func() {
		start := n.Clock().Now()
		send(n.Pace(1), size)
		done <- n.Clock().Now() - start
	}()
	n.Clock().Sleep(0.1)
	if err := n.RegisterFlow(2, path); err != nil {
		t.Fatal(err)
	}
	elapsed := <-done
	if elapsed < 0.25 {
		t.Errorf("transfer took %.3fs fabric; competitor did not slow the flow", elapsed)
	}
}

// TestStarvedFlowResumesAfterRestore: a gate on a dead link grants
// nothing until the link is restored, or until the flow is released.
func TestStarvedFlowResumesAfterRestore(t *testing.T) {
	for _, tc := range []struct {
		name   string
		revive func(n *Network, path topology.Path)
	}{
		{"link restored", func(n *Network, path topology.Path) { n.SetLinkCapacity(path[0], 8e6) }},
		{"flow released", func(n *Network, _ topology.Path) { n.UnregisterFlow(1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := testNetCompressed(t, 8)
			topo := n.Topology()
			path := pathFor(t, n, topo.HostAt(0, 0, 0), topo.HostAt(0, 0, 1))
			if err := n.RegisterFlow(1, path); err != nil {
				t.Fatal(err)
			}
			n.SetLinkCapacity(path[0], 0)

			g := n.Pace(1)
			done := make(chan struct{})
			go func() {
				defer close(done)
				send(g, 64<<10)
			}()
			select {
			case <-done:
				t.Fatal("send completed over a dead link")
			case <-time.After(50 * time.Millisecond):
			}
			tc.revive(n, path)
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("send did not resume")
			}
		})
	}
}

func TestSwitchCountersCredited(t *testing.T) {
	n := testNet(t)
	topo := n.Topology()
	src, dst := topo.HostAt(0, 0, 0), topo.HostAt(1, 0, 0)
	path := pathFor(t, n, src, dst)

	edge := topo.EdgeOf(src)
	sw := sdn.NewSwitch(uint64(edge))
	bridge := sdn.NewCounterBridge(topo)
	if err := bridge.Attach(edge, sw); err != nil {
		t.Fatal(err)
	}
	if err := bridge.Attach(src, sw); err == nil {
		t.Error("attached a switch to a host node")
	}
	n.SetCounterSink(bridge)

	if err := n.RegisterFlow(5, path); err != nil {
		t.Fatal(err)
	}
	g := n.Pace(5)
	send(g, 64<<10)
	// A sender still draining after the flow was retired credits nothing:
	// the counter below must stay at the registered 64 KB.
	n.UnregisterFlow(5)
	send(g, 4<<10)
	// The edge switch forwards the flow on its second link (edge→agg).
	port, _ := uint32(path[1]), error(nil)
	if got, _ := sw.HasFlow(5); got != 0 {
		// No flow table entry was installed; counters are still credited.
		_ = got
	}
	// Verify via the switch's own counters.
	found := false
	swStats := collectFlowStats(sw)
	for _, s := range swStats {
		if s.FlowID == 5 && s.ByteCount == 64<<10 {
			found = true
		}
	}
	if !found {
		t.Errorf("flow counter missing or wrong: %+v (port %d)", swStats, port)
	}
}

// collectFlowStats reads a switch's counters through its own public hook
// (AddBytes is the write side; there is no direct read, so use a
// controller round trip in integration tests — here we reach through the
// control protocol instead).
func collectFlowStats(sw *sdn.Switch) []sdn.FlowStat {
	// The switch only exposes counters via the control protocol; spin up
	// a loopback controller for the query.
	c := sdn.NewController()
	addr, err := c.Listen("127.0.0.1:0")
	if err != nil {
		return nil
	}
	defer c.Close()
	if err := sw.Connect(addr.String()); err != nil {
		return nil
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(c.Switches()) == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	ctx, cancel := contextWithTimeout(2 * time.Second)
	defer cancel()
	stats, err := c.FlowStats(ctx, sw.DatapathID())
	if err != nil {
		return nil
	}
	return stats
}
