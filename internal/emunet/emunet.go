// Package emunet emulates a datacenter network for the Mayflower
// prototype experiments, standing in for the paper's Mininet testbed
// (§6.1). Real bytes move over loopback TCP between in-process servers,
// but every registered flow's throughput is governed by a max-min fair
// arbiter over the emulated topology — the same steady-state sharing a
// fabric of drop-tail switches and long TCP flows converges to, and the
// property Mininet's link shaping provides the paper.
//
// The package is the wall-clock implementation of the shared network
// fabric contract (package fabric): Network is what the testbed's
// Flowserver hooks admit flows to, and Fabric (see fabric.go) adapts it
// to the full fabric.Backend driver contract so simulation experiments
// run unchanged on emulated bytes. The arbiter bookkeeping is a
// fabric.Table; all pacer timing goes through a fabric.Clock, so tests
// can compress wall time deterministically with fabric.NewScaledClock.
//
// The package implements dataserver.Pacer: each registered flow is its
// own fabric.Gate, which grants the dataserver time on the wire one
// quantum at a time — 2 ms of the flow's fair share, recomputed whenever
// flows enter or leave the network — while the dataserver moves the bytes
// itself. Optionally, a fabric.CounterSink (e.g. sdn.CounterBridge wiring
// SDN switch agents to topology switch nodes) can be attached; the gate
// then credits per-flow and per-port byte counters as traffic passes,
// which is what the Flowserver's stats polling observes.
package emunet

import (
	"errors"
	"fmt"
	"sync"

	"github.com/mayflower-dfs/mayflower/internal/fabric"
	"github.com/mayflower-dfs/mayflower/internal/obs"
	"github.com/mayflower-dfs/mayflower/internal/topology"
)

// chunkBytes is the quantum floor: large enough to keep per-quantum
// overhead negligible on slow links, and what every flow at or below
// 65.5 Mbps (where 2 ms is exactly 16 KiB) is paced in.
const chunkBytes = 16 << 10

// quantaPerSecond makes a quantum 2 ms of the flow's current share, so a
// reallocation takes hold within 2 ms of fabric time at any rate.
const quantaPerSecond = 500

// starvedPollSeconds is how often (in fabric time) a fully starved flow
// rechecks its rate. A flow is starved when the arbiter allocates it
// zero bandwidth — every link on its path dead — so it must make no
// progress at all, yet resume promptly when a fault heals.
const starvedPollSeconds = 2e-3

// emuFlow is one registered flow, and the fabric.Gate that paces it.
type emuFlow struct {
	net   *Network
	id    uint64
	links []int

	mu   sync.Mutex
	rate float64 // bits per second
	// released is set when the flow is unregistered; a gate starved on
	// a dead link checks it so it can unblock instead of waiting for a
	// reallocation that will never include the flow again.
	released bool
	// nextFree is the fabric time (seconds) before which the flow must
	// not send more bytes.
	nextFree float64
	// transferredBits counts bits credited through the gate: the
	// per-flow byte counter an edge switch would export.
	transferredBits float64
}

var _ fabric.Gate = (*emuFlow)(nil)

func (f *emuFlow) currentRate() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rate
}

// Network is the emulated fabric.
type Network struct {
	topo  *topology.Topology
	clock fabric.Clock

	mu         sync.Mutex
	flows      map[uint64]*emuFlow
	table      *fabric.Table
	linkBits   []float64 // cumulative bits forwarded per directed link
	sink       fabric.CounterSink
	rateNotify func()

	// Reallocation instrumentation (atomic; see AttachMetrics).
	reallocs    obs.Counter
	activeFlows obs.Gauge
}

// AttachMetrics publishes the network's reallocation counters into r
// under "emunet." names: the reallocation count and the live-flow gauge.
func (n *Network) AttachMetrics(r *obs.Registry) {
	r.RegisterCounter("emunet.reallocs", &n.reallocs)
	r.RegisterGauge("emunet.active_flows", &n.activeFlows)
}

// New creates an emulated network over the topology, on the wall clock.
func New(topo *topology.Topology) *Network {
	return NewWithClock(topo, fabric.NewWallClock())
}

// NewWithClock creates an emulated network whose pacers and observers
// run on the given fabric clock. Pass fabric.NewScaledClock to compress
// an emulation's wall time without changing any fabric-time behaviour.
func NewWithClock(topo *topology.Topology, clock fabric.Clock) *Network {
	capacity := make([]float64, topo.NumLinks())
	for _, l := range topo.Links() {
		capacity[l.ID] = l.Capacity
	}
	return &Network{
		topo:     topo,
		clock:    clock,
		flows:    make(map[uint64]*emuFlow),
		table:    fabric.NewTable(capacity),
		linkBits: make([]float64, topo.NumLinks()),
	}
}

// Topology returns the emulated topology.
func (n *Network) Topology() *topology.Topology { return n.topo }

// Clock returns the fabric clock the network runs on.
func (n *Network) Clock() fabric.Clock { return n.clock }

// SetCounterSink installs the sink that receives byte credits as traffic
// crosses links (nil uninstalls). The sink is invoked with the network's
// lock held and must not call back into the network.
func (n *Network) SetCounterSink(s fabric.CounterSink) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.sink = s
}

// SetRateNotify installs fn to run after every fair-share reallocation
// (admission, removal, capacity change). nil uninstalls.
func (n *Network) SetRateNotify(fn func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rateNotify = fn
}

// RegisterFlow admits a flow on a path and recomputes the fair rates it
// affects. Registering an existing id replaces its path.
func (n *Network) RegisterFlow(id uint64, path topology.Path) error {
	if id == 0 {
		return errors.New("emunet: flow id 0 is reserved")
	}
	links := make([]int, len(path))
	for i, l := range path {
		if !n.table.ValidLink(int(l)) {
			return fmt.Errorf("emunet: invalid link %d", l)
		}
		links[i] = int(l)
	}
	n.mu.Lock()
	f := n.flows[id]
	if f == nil {
		f = &emuFlow{net: n, id: id}
		n.flows[id] = f
	}
	f.links = links
	n.table.Set(id, links)
	notify := n.reallocateLocked()
	n.mu.Unlock()
	if notify != nil {
		notify()
	}
	return nil
}

// UnregisterFlow removes a flow and returns bandwidth to the others.
// Unknown ids are a no-op.
func (n *Network) UnregisterFlow(id uint64) {
	n.mu.Lock()
	f, ok := n.flows[id]
	if !ok {
		n.mu.Unlock()
		return
	}
	delete(n.flows, id)
	n.table.Remove(id)
	f.mu.Lock()
	f.released = true
	f.mu.Unlock()
	notify := n.reallocateLocked()
	n.mu.Unlock()
	if notify != nil {
		notify()
	}
}

// SetLinkCapacity changes the capacity of one directed link (bps >= 0;
// zero models a dead link, starving every flow crossing it). The fair
// rates it affects are recomputed immediately.
func (n *Network) SetLinkCapacity(id topology.LinkID, bps float64) {
	if bps < 0 {
		panic(fmt.Sprintf("emunet: negative capacity %g for link %d", bps, id))
	}
	n.mu.Lock()
	n.table.SetCapacity(int(id), bps)
	notify := n.reallocateLocked()
	n.mu.Unlock()
	if notify != nil {
		notify()
	}
}

// NumFlows returns the number of registered flows.
func (n *Network) NumFlows() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.flows)
}

func (n *Network) flow(id uint64) *emuFlow {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.flows[id]
}

// FlowRate returns a flow's current fair rate in bits per second.
func (n *Network) FlowRate(id uint64) (float64, bool) {
	f := n.flow(id)
	if f == nil {
		return 0, false
	}
	return f.currentRate(), true
}

// FlowTransferred returns the cumulative bits delivered for a registered
// flow so far, or 0 for unknown flows (counters for finished flows are
// gone, as when a switch evicts a flow-table entry).
func (n *Network) FlowTransferred(id uint64) float64 {
	f := n.flow(id)
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.transferredBits
}

// LinkTransferred returns the cumulative bits forwarded over a directed
// link: the port byte counter of the switch driving that link.
func (n *Network) LinkTransferred(id topology.LinkID) float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.linkBits[id]
}

// reallocateLocked recomputes max-min fair rates through the shared
// fabric table. Caller must hold n.mu; the returned notifier (nil if
// none installed) must be invoked after releasing it.
func (n *Network) reallocateLocked() func() {
	n.reallocs.Inc()
	n.activeFlows.Set(int64(len(n.flows)))
	n.table.Reallocate()
	n.table.Each(func(id uint64, rate float64) {
		f := n.flows[id]
		f.mu.Lock()
		f.rate = rate
		f.mu.Unlock()
	})
	return n.rateNotify
}

// Pace implements dataserver.Pacer: a registered flow is its own gate.
// Unregistered flows (including id 0) get none and go out unpaced and
// uncounted — such traffic is invisible to the control plane, like any
// flow an operator forgot to schedule.
func (n *Network) Pace(flowID uint64) fabric.Gate {
	if f := n.flow(flowID); f != nil {
		return f
	}
	return nil // not a nil *emuFlow: callers test the interface
}

// Next blocks until the flow may send its next quantum — 2 ms of its fair
// share, never under chunkBytes, at most limit — and returns its size, so
// the flow's average rate tracks its share even as the share changes
// mid-transfer. A flow whose rate is zero (dead link) makes no progress
// until a reallocation grants it bandwidth again or it is released: Next
// returns 0 after each starvedPollSeconds of waiting for either.
func (f *emuFlow) Next(limit int64) int64 {
	clock := f.net.clock
	f.mu.Lock()
	rate := f.rate
	if rate <= 0 {
		released := f.released
		f.mu.Unlock()
		if released {
			return min(limit, chunkBytes) // unregistered while starved; let the sender drain
		}
		clock.Sleep(starvedPollSeconds)
		return 0
	}
	q := min(limit, max(chunkBytes, int64(rate/(8*quantaPerSecond))))
	now := clock.Now()
	if f.nextFree < now {
		f.nextFree = now
	}
	start := f.nextFree
	f.nextFree = start + float64(q*8)/rate
	f.mu.Unlock()
	if d := start - clock.Now(); d > 0 {
		clock.Sleep(d)
	}
	return q
}

// Sent adds transmitted bytes to the flow's and path's byte counters,
// mirroring them into the attached CounterSink (the SDN switch agents)
// while the flow is registered. A sender still draining after
// UnregisterFlow must not credit the sink: the control plane has already
// retired the flow and removed its switch entries, and a late credit
// would leave a per-flow counter nobody ever deletes.
func (f *emuFlow) Sent(bytes int64) {
	bits := float64(bytes) * 8
	f.mu.Lock()
	f.transferredBits += bits
	f.mu.Unlock()

	n := f.net
	n.mu.Lock()
	defer n.mu.Unlock()
	live := n.flows[f.id] == f
	for _, l := range f.links {
		n.linkBits[l] += bits
		if n.sink != nil && live {
			n.sink.CreditBytes(f.id, topology.LinkID(l), uint64(bytes))
		}
	}
}
