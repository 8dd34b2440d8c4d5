package emunet

import (
	"math"
	"sync"

	"github.com/mayflower-dfs/mayflower/internal/fabric"
	"github.com/mayflower-dfs/mayflower/internal/obs"
	"github.com/mayflower-dfs/mayflower/internal/topology"
)

// Fabric adapts a Network to the full fabric.Backend driver contract:
// where the testbed's dataservers push their own bytes through the
// network's gates, Fabric paces each admitted flow itself: a per-flow
// goroutine takes the same quanta from the same gate as dataserver
// traffic, with no bytes behind them. This is what lets the experiment
// driver run a simulation trace on the emulator — same scheme code, same
// polling, real time.
//
// Driver callbacks (Schedule functions and flow OnComplete functions)
// are serialized on one mutex, honouring the fabric callback discipline.
// Run returns once every scheduled callback has fired and every admitted
// flow has finished or been cancelled.
type Fabric struct {
	net *Network

	// cbMu serializes all driver callbacks.
	cbMu sync.Mutex
	// wg counts in-flight work: scheduled callbacks and flow movers.
	// Adds happen either before Run (seeding the timeline) or from
	// within counted callbacks, which keeps Run's Wait sound.
	wg sync.WaitGroup

	mu     sync.Mutex
	nextID fabric.FlowID
	active map[fabric.FlowID]*fabricFlow
}

type fabricFlow struct {
	onComplete func(float64)
	cancel     chan struct{}
}

var _ fabric.Backend = (*Fabric)(nil)

// NewFabric wraps a Network as a fabric.Backend. The Network may be
// shared with a live testbed; driver flows and dataserver flows then
// contend for bandwidth like any other traffic.
func NewFabric(n *Network) *Fabric {
	return &Fabric{net: n, active: make(map[fabric.FlowID]*fabricFlow)}
}

// Network returns the underlying emulated network.
func (f *Fabric) Network() *Network { return f.net }

// AttachMetrics publishes the underlying network's reallocation counters
// into r (see Network.AttachMetrics).
func (f *Fabric) AttachMetrics(r *obs.Registry) { f.net.AttachMetrics(r) }

// Topology returns the topology the backend runs over.
func (f *Fabric) Topology() *topology.Topology { return f.net.topo }

// Now returns the current backend time in seconds (fabric clock time).
func (f *Fabric) Now() float64 { return f.net.clock.Now() }

// Schedule runs fn at backend time t as a serialized driver callback.
// Times in the past fire immediately.
func (f *Fabric) Schedule(t float64, fn func()) {
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		f.net.clock.Sleep(t - f.net.clock.Now())
		f.cbMu.Lock()
		defer f.cbMu.Unlock()
		fn()
	}()
}

// StartFlow admits a flow and starts a mover goroutine pacing its bytes
// through the flow's gate.
func (f *Fabric) StartFlow(cfg fabric.FlowConfig) fabric.FlowID {
	f.mu.Lock()
	f.nextID++
	id := f.nextID
	ff := &fabricFlow{onComplete: cfg.OnComplete, cancel: make(chan struct{})}
	f.active[id] = ff
	f.mu.Unlock()

	// Flow ids are positive, so uint64(id) never hits the network's
	// reserved id 0.
	if err := f.net.RegisterFlow(uint64(id), cfg.Links); err != nil {
		// The driver handed us a path that isn't in the topology; that is
		// a programming error on a fixed experiment trace.
		panic(err)
	}

	f.wg.Add(1)
	go f.move(id, ff, cfg.Bits)
	return id
}

// move paces bits through the flow's gate, then reports completion.
func (f *Fabric) move(id fabric.FlowID, ff *fabricFlow, bits float64) {
	defer f.wg.Done()

	regID := uint64(id)
	remaining := int64(math.Ceil(bits / 8))
	cancelled := false
	// A flow cancelled before its mover started has no gate and nothing
	// left to move.
	for g := f.net.Pace(regID); g != nil && remaining > 0; {
		select {
		case <-ff.cancel:
			cancelled = true
		default:
		}
		if cancelled {
			break
		}
		if n := g.Next(remaining); n > 0 { // 0: starved, look at the cancel signal again
			g.Sent(n)
			remaining -= n
		}
	}

	// The gate returns when the last quantum starts transmitting; the
	// flow completes when its last bit lands, one quantum-time later.
	if ef := f.net.flow(regID); !cancelled && ef != nil {
		ef.mu.Lock()
		tail := ef.nextFree - f.net.clock.Now()
		ef.mu.Unlock()
		f.net.clock.Sleep(tail)
	}
	end := f.net.clock.Now()

	f.mu.Lock()
	_, live := f.active[id]
	if live {
		delete(f.active, id)
	}
	f.mu.Unlock()
	if !live {
		return // cancelled concurrently; CancelFlow owns the unregister
	}
	f.net.UnregisterFlow(regID)
	if cancelled || ff.onComplete == nil {
		return
	}
	f.cbMu.Lock()
	defer f.cbMu.Unlock()
	ff.onComplete(end)
}

// CancelFlow removes a flow without running its completion callback.
func (f *Fabric) CancelFlow(id fabric.FlowID) {
	f.mu.Lock()
	ff := f.active[id]
	if ff != nil {
		delete(f.active, id)
	}
	f.mu.Unlock()
	if ff == nil {
		return
	}
	close(ff.cancel)
	// Unregistering releases the flow from the arbiter; the release flag
	// also unblocks a mover starved on a dead link so it can observe the
	// cancellation and exit.
	f.net.UnregisterFlow(uint64(id))
}

// FlowRate returns the flow's current fair rate in bits per second.
func (f *Fabric) FlowRate(id fabric.FlowID) float64 {
	r, _ := f.net.FlowRate(uint64(id))
	return r
}

// FlowTransferred returns the cumulative bits delivered for an active
// flow, 0 once it has completed.
func (f *Fabric) FlowTransferred(id fabric.FlowID) float64 {
	return f.net.FlowTransferred(uint64(id))
}

// LinkTransferred returns the cumulative bits forwarded over a link.
func (f *Fabric) LinkTransferred(id topology.LinkID) float64 {
	return f.net.LinkTransferred(id)
}

// SetLinkCapacity changes one directed link's capacity.
func (f *Fabric) SetLinkCapacity(id topology.LinkID, bps float64) {
	f.net.SetLinkCapacity(id, bps)
}

// NumActiveFlows returns the number of in-flight driver flows.
func (f *Fabric) NumActiveFlows() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.active)
}

// SetRateNotify installs fn to run after every fair-share reallocation.
func (f *Fabric) SetRateNotify(fn func()) { f.net.SetRateNotify(fn) }

// Run blocks until all scheduled callbacks have fired and all admitted
// flows have finished or been cancelled.
func (f *Fabric) Run() error {
	f.wg.Wait()
	return nil
}
