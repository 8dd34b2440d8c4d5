package sdn

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"
)

// startPlane brings up a controller and n connected switches.
func startPlane(t *testing.T, n int) (*Controller, []*Switch) {
	t.Helper()
	c := NewController()
	addr, err := c.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	switches := make([]*Switch, n)
	for i := 0; i < n; i++ {
		sw := NewSwitch(uint64(100 + i))
		if err := sw.Connect(addr.String()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sw.Close() })
		switches[i] = sw
	}
	// Wait for all HELLOs to land.
	deadline := time.Now().Add(3 * time.Second)
	for len(c.Switches()) < n && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := len(c.Switches()); got != n {
		t.Fatalf("controller sees %d switches, want %d", got, n)
	}
	return c, switches
}

func ctxShort(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestHelloRegistersSwitch(t *testing.T) {
	c, switches := startPlane(t, 3)
	ids := c.Switches()
	if len(ids) != 3 {
		t.Fatalf("Switches() = %v", ids)
	}
	for _, sw := range switches {
		found := false
		for _, id := range ids {
			if id == sw.DatapathID() {
				found = true
			}
		}
		if !found {
			t.Errorf("switch %d not registered", sw.DatapathID())
		}
	}
}

func TestInstallAndRemoveFlow(t *testing.T) {
	c, switches := startPlane(t, 1)
	sw := switches[0]

	if err := c.InstallFlow(sw.DatapathID(), 42, 7); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { _, ok := sw.HasFlow(42); return ok })
	if port, _ := sw.HasFlow(42); port != 7 {
		t.Errorf("flow 42 out port = %d, want 7", port)
	}

	if err := c.RemoveFlow(sw.DatapathID(), 42); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { _, ok := sw.HasFlow(42); return !ok })
	if n := sw.NumFlows(); n != 0 {
		t.Errorf("NumFlows = %d, want 0", n)
	}
}

// TestFlowModAllocatesNothing: a rule install and its removal cost no
// allocation at either end — each iteration waits until the switch has
// applied both, so its side is counted too.
func TestFlowModAllocatesNothing(t *testing.T) {
	c, switches := startPlane(t, 1)
	sw := switches[0]
	applied := func(want bool) {
		for _, ok := sw.HasFlow(5); ok != want; _, ok = sw.HasFlow(5) {
			time.Sleep(10 * time.Microsecond)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := c.InstallFlow(sw.DatapathID(), 5, 1); err != nil {
			t.Fatal(err)
		}
		applied(true)
		if err := c.RemoveFlow(sw.DatapathID(), 5); err != nil {
			t.Fatal(err)
		}
		applied(false)
	})
	if allocs != 0 {
		t.Errorf("a FlowMod install and removal allocate %v times, want 0", allocs)
	}
}

func TestStatsRoundTrip(t *testing.T) {
	c, switches := startPlane(t, 1)
	sw := switches[0]
	dpid := sw.DatapathID()

	if err := c.InstallFlow(dpid, 1, 3); err != nil {
		t.Fatal(err)
	}
	sw.AddBytes(1, 3, 1000)
	sw.AddBytes(1, 3, 500)
	sw.AddBytes(2, 4, 42)

	fstats, err := c.FlowStats(ctxShort(t), dpid)
	if err != nil {
		t.Fatal(err)
	}
	byFlow := make(map[uint64]uint64)
	for _, s := range fstats {
		byFlow[s.FlowID] = s.ByteCount
	}
	if byFlow[1] != 1500 || byFlow[2] != 42 {
		t.Errorf("flow stats = %v", byFlow)
	}

	pstats, err := c.PortStats(ctxShort(t), dpid)
	if err != nil {
		t.Fatal(err)
	}
	byPort := make(map[uint32]uint64)
	for _, s := range pstats {
		byPort[s.Port] = s.TxBytes
	}
	if byPort[3] != 1500 || byPort[4] != 42 {
		t.Errorf("port stats = %v", byPort)
	}
}

func TestFlowDeleteClearsCounters(t *testing.T) {
	c, switches := startPlane(t, 1)
	sw := switches[0]
	dpid := sw.DatapathID()
	if err := c.InstallFlow(dpid, 9, 1); err != nil {
		t.Fatal(err)
	}
	sw.AddBytes(9, 1, 777)
	if err := c.RemoveFlow(dpid, 9); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		stats, err := c.FlowStats(ctxShort(t), dpid)
		if err != nil {
			return false
		}
		for _, s := range stats {
			if s.FlowID == 9 {
				return false
			}
		}
		return true
	})
}

// TestMessageTypeNumbers pins the wire numbers: a retired message keeps
// its number reserved, so every other type means what it always meant.
func TestMessageTypeNumbers(t *testing.T) {
	got := []MsgType{TypeHello, TypeFlowMod, TypePortStatsRequest, TypePortStatsReply,
		TypeFlowStatsRequest, TypeFlowStatsReply, TypeError}
	want := []MsgType{1, 2, 3, 4, 5, 6, 9}
	if !slices.Equal(got, want) {
		t.Errorf("message types = %v, want %v", got, want)
	}
}

func TestUnknownSwitch(t *testing.T) {
	c, _ := startPlane(t, 1)
	if err := c.InstallFlow(999, 1, 1); !errors.Is(err, ErrUnknownSwitch) {
		t.Errorf("InstallFlow(999) = %v, want ErrUnknownSwitch", err)
	}
	if _, err := c.PortStats(ctxShort(t), 999); !errors.Is(err, ErrUnknownSwitch) {
		t.Errorf("PortStats(999) = %v, want ErrUnknownSwitch", err)
	}
}

func TestSwitchDisconnectDeregisters(t *testing.T) {
	c, switches := startPlane(t, 2)
	if err := switches[0].Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(c.Switches()) == 1 })
	if _, err := c.FlowStats(ctxShort(t), switches[0].DatapathID()); err == nil {
		t.Error("stats for disconnected switch succeeded")
	}
	// The remaining switch keeps working.
	if _, err := c.FlowStats(ctxShort(t), switches[1].DatapathID()); err != nil {
		t.Errorf("surviving switch stats: %v", err)
	}
}

func TestControllerCloseUnblocksSwitches(t *testing.T) {
	c, switches := startPlane(t, 1)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	// Switch close must not hang after the controller is gone.
	done := make(chan struct{})
	go func() {
		switches[0].Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("switch Close hung after controller close")
	}
}

func TestSwitchDoubleConnect(t *testing.T) {
	c := NewController()
	addr, err := c.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sw := NewSwitch(5)
	if err := sw.Connect(addr.String()); err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	if err := sw.Connect(addr.String()); err == nil {
		t.Error("second Connect accepted")
	}
}

func TestMessageCodecs(t *testing.T) {
	if _, err := decodeHello([]byte{1, 2}); !errors.Is(err, ErrBadMessage) {
		t.Error("short hello accepted")
	}
	if _, _, _, err := decodeFlowMod([]byte{1}); !errors.Is(err, ErrBadMessage) {
		t.Error("short flowmod accepted")
	}
	if _, err := decodePortStats([]byte{0, 0, 0, 2, 1}); !errors.Is(err, ErrBadMessage) {
		t.Error("truncated port stats accepted")
	}
	if _, err := decodeFlowStats([]byte{0, 0, 0, 1}); !errors.Is(err, ErrBadMessage) {
		t.Error("truncated flow stats accepted")
	}
	if _, _, err := decodeError([]byte{9}); !errors.Is(err, ErrBadMessage) {
		t.Error("short error accepted")
	}

	// Round trips.
	ps, err := decodePortStats(encodePortStats([]PortStat{{Port: 1, TxBytes: 2}, {Port: 3, TxBytes: 4}}))
	if err != nil || len(ps) != 2 || ps[1].TxBytes != 4 {
		t.Errorf("port stats round trip: %v %v", ps, err)
	}
	fs, err := decodeFlowStats(encodeFlowStats([]FlowStat{{FlowID: 7, ByteCount: 8}}))
	if err != nil || len(fs) != 1 || fs[0].FlowID != 7 {
		t.Errorf("flow stats round trip: %v %v", fs, err)
	}
	code, msg, err := decodeError(encodeError(3, "oops"))
	if err != nil || code != 3 || msg != "oops" {
		t.Errorf("error round trip: %d %q %v", code, msg, err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not met within deadline")
}
