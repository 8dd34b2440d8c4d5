// Package netsim is a flow-level, event-driven datacenter network
// simulator. It is the "simulations" half of the Mayflower evaluation
// (§6): flows traverse directed link paths through a topology, share link
// bandwidth max-min fairly (the steady-state behaviour of long TCP flows),
// and complete when their bytes are delivered.
//
// The simulator exposes two views of its state:
//
//   - Ground truth (FlowRate, FlowRemaining), used by tests and by the
//     simulator itself.
//
//   - Counter-based observations (FlowTransferred, LinkTransferred), the
//     byte counters an OpenFlow edge switch would export. The Flowserver's
//     stats collector is built on these, so its bandwidth estimates carry
//     the same staleness they would against real switches.
//
// Rates come from a fabric.Table, the arbiter the emulator uses too: on
// each arrival, completion or capacity change it recomputes max-min rates
// only for the connected component of links and flows the change reaches
// (see DESIGN.md §8). The simulator owns the event loop, each flow's
// remaining and delivered bits, the per-link byte counters and the
// completion wake-ups; its active list shares row numbers with the table.
// Steady-state event processing is allocation-free apart from the new
// flow itself and the per-event completion wake-up.
//
// Time is a float64 in seconds; sizes are bits; rates are bits per second.
package netsim

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"github.com/mayflower-dfs/mayflower/internal/fabric"
	"github.com/mayflower-dfs/mayflower/internal/obs"
	"github.com/mayflower-dfs/mayflower/internal/topology"
)

// FlowID identifies a flow within one Sim. It is the fabric-wide flow id
// type: the simulator is the virtual-time implementation of
// fabric.Backend.
type FlowID = fabric.FlowID

// completionEps is the residual size below which a flow counts as done.
const completionEps = 1e-3 // bits

// FlowConfig describes a flow to start. It is the shared fabric flow
// description, so drivers written against fabric.Backend use the same
// type on every substrate.
type FlowConfig = fabric.FlowConfig

// Sim implements the shared network-backend contract.
var _ fabric.Backend = (*Sim)(nil)

type simFlow struct {
	id          FlowID
	links       []int
	remaining   float64
	transferred float64
	onComplete  func(float64)

	idx int // position in Sim.activeList, and the flow's table row
}

type event struct {
	time float64
	seq  int64
	fn   func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Sim is a flow-level network simulator over a fixed topology.
type Sim struct {
	topo  *topology.Topology
	table *fabric.Table

	now     float64
	nextID  FlowID
	nextSeq int64
	flows   map[FlowID]*simFlow
	events  eventHeap

	// Dense active list in the table's row order: StartFlow appends to
	// both and removeFlow swap-removes from both, so activeList[i]'s rate
	// is table.Rate(i).
	activeList []*simFlow

	linkBits []float64 // cumulative bits forwarded per directed link

	gen        int64 // rate-allocation generation, invalidates completions
	dirty      bool
	executing  bool
	rateNotify func()

	doneScratch []*simFlow

	met fabricMetrics
}

// fabricMetrics counts reallocation activity: how often rates were
// recomputed and how large the recomputed components were. All writers
// are atomic words, so the instrumentation never perturbs event ordering
// or rates.
type fabricMetrics struct {
	reallocs       obs.Counter
	activeFlows    obs.Gauge
	componentFlows *obs.Histogram
}

// AttachMetrics publishes the simulator's reallocation counters into r
// under "netsim." names. Call before Run; the counters accumulate for
// the lifetime of the Sim regardless.
func (s *Sim) AttachMetrics(r *obs.Registry) {
	r.RegisterCounter("netsim.reallocs", &s.met.reallocs)
	r.RegisterGauge("netsim.active_flows", &s.met.activeFlows)
	r.RegisterHistogram("netsim.component_flows", s.met.componentFlows)
}

// New creates a simulator for the given topology at time zero.
func New(topo *topology.Topology) *Sim {
	capacity := make([]float64, topo.NumLinks())
	for _, l := range topo.Links() {
		capacity[l.ID] = l.Capacity
	}
	sim := &Sim{
		topo:     topo,
		table:    fabric.NewTable(capacity),
		flows:    make(map[FlowID]*simFlow),
		linkBits: make([]float64, topo.NumLinks()),
	}
	sim.met.componentFlows = obs.NewHistogram(1, 1e6)
	return sim
}

// Topology returns the topology the simulator runs over.
func (s *Sim) Topology() *topology.Topology { return s.topo }

// Now returns the current simulation time in seconds.
func (s *Sim) Now() float64 { return s.now }

// NumActiveFlows returns the number of in-flight flows.
func (s *Sim) NumActiveFlows() int { return len(s.flows) }

// Schedule runs fn inside the simulation at time t (>= Now).
func (s *Sim) Schedule(t float64, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("netsim: Schedule(%g) before now (%g)", t, s.now))
	}
	s.nextSeq++
	heap.Push(&s.events, &event{time: t, seq: s.nextSeq, fn: fn})
}

// StartFlow adds a flow at the current time and returns its id.
func (s *Sim) StartFlow(cfg FlowConfig) FlowID {
	if cfg.Bits < 0 {
		panic("netsim: negative flow size")
	}
	s.nextID++
	id := s.nextID
	links := make([]int, len(cfg.Links))
	for i, l := range cfg.Links {
		links[i] = int(l)
	}
	f := &simFlow{
		id:         id,
		links:      links,
		remaining:  cfg.Bits,
		onComplete: cfg.OnComplete,
		idx:        len(s.activeList),
	}
	s.flows[id] = f
	s.activeList = append(s.activeList, f)
	s.table.Set(uint64(id), links)
	s.dirty = true
	if !s.executing {
		s.reallocate()
	}
	return id
}

// CancelFlow removes a flow without running its completion callback.
// Cancelling an unknown (or already finished) flow is a no-op.
func (s *Sim) CancelFlow(id FlowID) {
	f, ok := s.flows[id]
	if !ok {
		return
	}
	s.removeFlow(f)
	if !s.executing {
		s.reallocate()
	}
}

// removeFlow detaches a flow from the model; the table seeds its links
// for the next reallocation (the bandwidth it held is redistributed
// within its component).
func (s *Sim) removeFlow(f *simFlow) {
	delete(s.flows, f.id)
	last := s.activeList[len(s.activeList)-1]
	s.activeList[f.idx] = last
	last.idx = f.idx
	s.activeList[len(s.activeList)-1] = nil
	s.activeList = s.activeList[:len(s.activeList)-1]
	s.table.Remove(uint64(f.id))
	s.dirty = true
}

// SetLinkCapacity changes the capacity of one directed link (bps >= 0;
// zero models a dead link, starving every flow crossing it). The affected
// component's rates are recomputed immediately.
func (s *Sim) SetLinkCapacity(id topology.LinkID, bps float64) {
	if bps < 0 {
		panic(fmt.Sprintf("netsim: negative capacity %g for link %d", bps, id))
	}
	s.table.SetCapacity(int(id), bps)
	s.dirty = true
	if !s.executing {
		s.reallocate()
	}
}

// FlowRate returns the ground-truth current rate of a flow, or 0 if the
// flow is not active.
func (s *Sim) FlowRate(id FlowID) float64 {
	f, ok := s.flows[id]
	if !ok {
		return 0
	}
	return s.table.Rate(f.idx)
}

// FlowRemaining returns the ground-truth remaining bits of a flow, or 0.
func (s *Sim) FlowRemaining(id FlowID) float64 {
	f, ok := s.flows[id]
	if !ok {
		return 0
	}
	return f.remaining
}

// FlowTransferred returns the cumulative bits delivered for a flow so far:
// the per-flow byte counter an edge switch would export. It returns 0 for
// unknown flows (counters for completed flows are gone, as they are when a
// switch evicts a flow table entry).
func (s *Sim) FlowTransferred(id FlowID) float64 {
	f, ok := s.flows[id]
	if !ok {
		return 0
	}
	return f.transferred
}

// LinkTransferred returns the cumulative bits forwarded over a directed
// link: the port byte counter of the switch driving that link.
func (s *Sim) LinkTransferred(id topology.LinkID) float64 {
	return s.linkBits[id]
}

// LinkRate returns the ground-truth aggregate rate currently crossing a
// directed link. Cost is O(flows on the link) via the per-link index.
func (s *Sim) LinkRate(id topology.LinkID) float64 {
	return s.table.LinkRate(int(id))
}

// Run processes events until none remain and no flows are active. If the
// event queue drains while flows are still active — a starved flow on a
// zero-capacity link never schedules a completion — Run reports them
// instead of returning silently; the survivors are available via Stalled.
func (s *Sim) Run() error {
	s.runUntil(math.Inf(1))
	if stalled := s.Stalled(); len(stalled) > 0 {
		return fmt.Errorf("netsim: event queue drained at t=%g with %d stalled zero-rate flow(s) (first: flow %d)",
			s.now, len(stalled), stalled[0])
	}
	return nil
}

// Stalled returns the ids (ascending) of active flows with zero allocated
// rate. Such flows make no progress and never complete; after Run returns
// an error this is the set of flows that kept it from finishing.
func (s *Sim) Stalled() []FlowID {
	var out []FlowID
	for i, f := range s.activeList {
		if s.table.Rate(i) == 0 {
			out = append(out, f.id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RunUntil processes events up to and including time t, then advances the
// clock to t. Pending later events remain queued.
func (s *Sim) RunUntil(t float64) {
	if t < s.now {
		panic(fmt.Sprintf("netsim: RunUntil(%g) before now (%g)", t, s.now))
	}
	s.runUntil(t)
	if !math.IsInf(t, 1) {
		s.advanceTo(t)
	}
}

func (s *Sim) runUntil(t float64) {
	if s.dirty {
		s.reallocate()
	}
	for len(s.events) > 0 {
		next := s.events[0]
		if next.time > t {
			return
		}
		heap.Pop(&s.events)
		s.advanceTo(next.time)
		s.now = next.time

		s.executing = true
		next.fn()
		s.executing = false

		s.finishCompleted()
		if s.dirty {
			s.reallocate()
		}
	}
}

// advanceTo moves flow progress and link counters forward to time t without
// changing rates.
func (s *Sim) advanceTo(t float64) {
	dt := t - s.now
	if dt <= 0 {
		return
	}
	for i, f := range s.activeList {
		moved := s.table.Rate(i) * dt
		if moved > f.remaining {
			moved = f.remaining
		}
		f.remaining -= moved
		f.transferred += moved
		for _, l := range f.links {
			s.linkBits[l] += moved
		}
	}
	s.now = t
}

// finishCompleted removes flows whose remaining size reached zero and runs
// their callbacks (which may start new flows).
func (s *Sim) finishCompleted() {
	done := s.doneScratch[:0]
	for _, f := range s.activeList {
		if f.remaining <= completionEps {
			done = append(done, f)
		}
	}
	s.doneScratch = done[:0]
	if len(done) == 0 {
		return
	}
	// Deterministic order for callbacks.
	for i := 0; i < len(done); i++ {
		for j := i + 1; j < len(done); j++ {
			if done[j].id < done[i].id {
				done[i], done[j] = done[j], done[i]
			}
		}
	}
	for _, f := range done {
		s.removeFlow(f)
	}
	for _, f := range done {
		if f.onComplete != nil {
			s.executing = true
			f.onComplete(s.now)
			s.executing = false
		}
	}
}

// SetRateNotify installs fn to run (inside the simulation) after every
// rate reallocation. nil uninstalls. Part of the fabric.Backend
// contract; the hook is a single nil check per reallocation, so it stays
// off the allocation hot path.
func (s *Sim) SetRateNotify(fn func()) { s.rateNotify = fn }

// reallocate recomputes the max-min fair rates the changes since the last
// reallocation affect and schedules the next completion event.
func (s *Sim) reallocate() {
	s.dirty = false
	s.gen++
	s.met.reallocs.Inc()
	s.met.activeFlows.Set(int64(len(s.activeList)))
	s.met.componentFlows.Observe(float64(s.table.Reallocate()))
	if s.rateNotify != nil {
		s.rateNotify()
	}

	// Schedule the next completion wake-up from fresh estimates over all
	// active flows. This is a single O(active) pass (no allocation); the
	// estimates are recomputed rather than cached so event timestamps
	// stay bit-identical with a full recompute.
	nextDone := math.Inf(1)
	for i, f := range s.activeList {
		if f.remaining <= completionEps {
			nextDone = s.now // already done (zero-size flow)
			continue
		}
		if rate := s.table.Rate(i); rate > 0 {
			if t := s.now + f.remaining/rate; t < nextDone {
				nextDone = t
			}
		}
	}
	if math.IsInf(nextDone, 1) {
		return
	}
	gen := s.gen
	s.Schedule(nextDone, func() {
		if gen != s.gen {
			return // stale: rates changed since this was scheduled
		}
		// advance/finish handled by the run loop after this event.
	})
}
