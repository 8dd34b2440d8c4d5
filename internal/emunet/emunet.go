// Package emunet emulates a datacenter network for the Mayflower
// prototype experiments, standing in for the paper's Mininet testbed
// (§6.1). Real bytes move over loopback TCP between in-process servers,
// but every registered flow's throughput is governed by a max-min fair
// arbiter over the emulated topology — the same steady-state sharing a
// fabric of drop-tail switches and long TCP flows converges to, and the
// property Mininet's link shaping provides the paper.
//
// The package is the wall-clock implementation of the shared network
// fabric contract (package fabric): Network is the fabric.Admitter the
// testbed's Flowserver hooks speak, and Fabric (see fabric.go) adapts it
// to the full fabric.Backend driver contract so simulation experiments
// run unchanged on emulated bytes. The arbiter bookkeeping is the shared
// fabric.Table; all pacer timing goes through a fabric.Clock, so tests
// can compress wall time deterministically with fabric.NewScaledClock.
//
// The package implements dataserver.Pacer: a dataserver constructed with
// an emunet pacer streams each read through a token pacer whose rate is
// recomputed whenever flows enter or leave the network. Optionally, a
// fabric.CounterSink (e.g. sdn.CounterBridge wiring SDN switch agents to
// topology switch nodes) can be attached; the pacer then credits
// per-flow and per-port byte counters as traffic passes, which is what
// the Flowserver's stats polling observes.
package emunet

import (
	"errors"
	"fmt"
	"io"

	"sync"

	"github.com/mayflower-dfs/mayflower/internal/fabric"
	"github.com/mayflower-dfs/mayflower/internal/obs"
	"github.com/mayflower-dfs/mayflower/internal/topology"
)

// chunkBytes is the pacing quantum: small enough that rate changes take
// effect quickly, large enough to keep syscall overhead negligible.
const chunkBytes = 16 << 10

// starvedPollSeconds is how often (in fabric time) a fully starved flow
// rechecks its rate. A flow is starved when the arbiter allocates it
// zero bandwidth — every link on its path dead — so it must make no
// progress at all, yet resume promptly when a fault heals.
const starvedPollSeconds = 2e-3

// ErrUnknownFlow is returned when pacing an unregistered flow.
var ErrUnknownFlow = errors.New("emunet: unknown flow")

type emuFlow struct {
	id    uint64
	links []int

	mu   sync.Mutex
	rate float64 // bits per second
	// released is set when the flow is unregistered; a pacer starved on
	// a dead link checks it so it can unblock instead of waiting for a
	// reallocation that will never include the flow again.
	released bool
	// nextFree is the fabric time (seconds) before which the flow's
	// pacer must not send more bytes.
	nextFree float64
	// transferredBits counts bits delivered through the pacer: the
	// per-flow byte counter an edge switch would export.
	transferredBits float64
}

func (f *emuFlow) currentRate() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rate
}

// Network is the emulated fabric. It implements fabric.Admitter.
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
// under "emunet." names. The emulated fabric recomputes every rate
// globally (no component allocator), so only the reallocation count and
// the live-flow gauge exist here.
func (n *Network) AttachMetrics(r *obs.Registry) {
	r.RegisterCounter("emunet.reallocs", &n.reallocs)
	r.RegisterGauge("emunet.active_flows", &n.activeFlows)
}

var _ fabric.Admitter = (*Network)(nil)

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

// RegisterFlow admits a flow on a path and recomputes every flow's fair
// rate. Registering an existing id replaces its path.
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
		f = &emuFlow{id: id}
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
// zero models a dead link, starving every flow crossing it). Every fair
// rate is recomputed immediately.
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

// FlowRate returns a flow's current fair rate in bits per second.
func (n *Network) FlowRate(id uint64) (float64, bool) {
	n.mu.Lock()
	f, ok := n.flows[id]
	n.mu.Unlock()
	if !ok {
		return 0, false
	}
	return f.currentRate(), true
}

// FlowTransferred returns the cumulative bits delivered for a registered
// flow so far, or 0 for unknown flows (counters for finished flows are
// gone, as when a switch evicts a flow-table entry).
func (n *Network) FlowTransferred(id uint64) float64 {
	n.mu.Lock()
	f, ok := n.flows[id]
	n.mu.Unlock()
	if !ok {
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

// Writer implements dataserver.Pacer: writes to the returned writer are
// paced at the flow's fair share and credited to the fabric's byte
// counters (and any attached CounterSink) along its path. Writes for
// unregistered flows (including id 0) pass through unpaced and
// uncounted — such traffic is invisible to the control plane, like any
// flow an operator forgot to schedule.
func (n *Network) Writer(flowID uint64, w io.Writer) io.Writer {
	n.mu.Lock()
	f := n.flows[flowID]
	n.mu.Unlock()
	if f == nil {
		return w
	}
	return &pacedWriter{net: n, flow: f, w: w}
}

var _ interface {
	Writer(uint64, io.Writer) io.Writer
} = (*Network)(nil)

type pacedWriter struct {
	net  *Network
	flow *emuFlow
	w    io.Writer
}

// Write sends b in pacing quanta, sleeping so the flow's average rate
// tracks its allocated share even as the share changes mid-transfer.
func (p *pacedWriter) Write(b []byte) (int, error) {
	written := 0
	for written < len(b) {
		nn := len(b) - written
		if nn > chunkBytes {
			nn = chunkBytes
		}
		p.pace(float64(nn * 8))
		m, err := p.w.Write(b[written : written+nn])
		written += m
		if m > 0 {
			p.credit(m)
		}
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// pace blocks until the flow may send another bits-sized quantum. A flow
// whose rate is zero (dead link) makes no progress until a reallocation
// grants it bandwidth again.
func (p *pacedWriter) pace(bits float64) {
	f := p.flow
	clock := p.net.clock
	for {
		f.mu.Lock()
		rate := f.rate
		if rate > 0 {
			now := clock.Now()
			if f.nextFree < now {
				f.nextFree = now
			}
			start := f.nextFree
			f.nextFree = start + bits/rate
			f.mu.Unlock()
			if d := start - clock.Now(); d > 0 {
				clock.Sleep(d)
			}
			return
		}
		released := f.released
		f.mu.Unlock()
		if released {
			return // unregistered while starved; let the writer drain
		}
		clock.Sleep(starvedPollSeconds)
	}
}

// credit adds transmitted bytes to the flow's and path's byte counters,
// mirroring them into the attached CounterSink (the SDN switch agents)
// while the flow is registered. A writer still draining after
// UnregisterFlow must not credit the sink: the control plane has already
// retired the flow and removed its switch entries, and a late credit
// would leave a per-flow counter nobody ever deletes.
func (p *pacedWriter) credit(bytes int) {
	bits := float64(bytes) * 8
	f := p.flow
	f.mu.Lock()
	f.transferredBits += bits
	f.mu.Unlock()

	p.net.mu.Lock()
	defer p.net.mu.Unlock()
	live := p.net.flows[f.id] == f
	for _, l := range f.links {
		p.net.linkBits[l] += bits
		if p.net.sink != nil && live {
			p.net.sink.CreditBytes(f.id, topology.LinkID(l), uint64(bytes))
		}
	}
}
