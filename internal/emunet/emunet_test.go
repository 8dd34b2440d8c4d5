package emunet

import (
	"bytes"
	"io"
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

func TestPacedWriterThroughput(t *testing.T) {
	// Compressed 8x: the ≈200 ms fabric-time transfer takes ≈25 ms wall.
	n := testNetCompressed(t, 8)
	topo := n.Topology()
	path := pathFor(t, n, topo.HostAt(0, 0, 0), topo.HostAt(0, 0, 1))
	if err := n.RegisterFlow(7, path); err != nil {
		t.Fatal(err)
	}

	// 8 Mbps = 1 MB/s; transferring 200 KB should take ≈200 ms fabric.
	var sink bytes.Buffer
	w := n.Writer(7, &sink)
	payload := make([]byte, 200<<10)
	start := n.Clock().Now()
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	elapsed := n.Clock().Now() - start
	if sink.Len() != len(payload) {
		t.Fatalf("wrote %d bytes", sink.Len())
	}
	if elapsed < 0.15 || elapsed > 0.6 {
		t.Errorf("transfer took %.3fs fabric, want ≈0.2s", elapsed)
	}
	if bits := n.FlowTransferred(7); bits != float64(len(payload))*8 {
		t.Errorf("FlowTransferred = %g bits, want %g", bits, float64(len(payload))*8)
	}
	if bits := n.LinkTransferred(path[0]); bits != float64(len(payload))*8 {
		t.Errorf("LinkTransferred = %g bits, want %g", bits, float64(len(payload))*8)
	}
}

func TestUnregisteredFlowUnpaced(t *testing.T) {
	n := testNet(t)
	var sink bytes.Buffer
	w := n.Writer(0, &sink)
	start := time.Now()
	if _, err := w.Write(make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("unregistered flow paced: %v", elapsed)
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

	payload := make([]byte, 100<<10) // 100 KB each at 0.5 MB/s ≈ 200 ms fabric
	var wg sync.WaitGroup
	durations := make([]float64, 2)
	for i, id := range []uint64{1, 2} {
		i, id := i, id
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := n.Writer(id, io.Discard)
			start := n.Clock().Now()
			if _, err := w.Write(payload); err != nil {
				t.Error(err)
			}
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
	payload := make([]byte, 200<<10) // alone: ≈200 ms fabric; competitor for 2nd half: ≈300 ms
	done := make(chan float64, 1)
	go func() {
		w := n.Writer(1, io.Discard)
		start := n.Clock().Now()
		_, _ = w.Write(payload)
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

func TestStarvedFlowResumesAfterRestore(t *testing.T) {
	n := testNetCompressed(t, 8)
	topo := n.Topology()
	path := pathFor(t, n, topo.HostAt(0, 0, 0), topo.HostAt(0, 0, 1))
	if err := n.RegisterFlow(1, path); err != nil {
		t.Fatal(err)
	}
	n.SetLinkCapacity(path[0], 0)

	done := make(chan struct{})
	go func() {
		defer close(done)
		w := n.Writer(1, io.Discard)
		_, _ = w.Write(make([]byte, 64<<10))
	}()
	select {
	case <-done:
		t.Fatal("write completed over a dead link")
	case <-time.After(50 * time.Millisecond):
	}
	n.SetLinkCapacity(path[0], 8e6)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("write did not resume after the link was restored")
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
	w := n.Writer(5, io.Discard)
	if _, err := w.Write(make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}
	// A writer still draining after the flow was retired credits nothing:
	// the counter below must stay at the registered 64 KB.
	n.UnregisterFlow(5)
	if _, err := w.Write(make([]byte, 4<<10)); err != nil {
		t.Fatal(err)
	}
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
