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
// Rate allocation is incremental: the simulator maintains a per-link flow
// index and, on each arrival or completion, recomputes max-min rates only
// for the connected component of links and flows transitively sharing a
// link with the change. Flows outside that component provably keep their
// rates (see DESIGN.md). Within the component, progressive filling runs on
// a lazy min-heap of link saturation levels — a link's level (capacity
// minus frozen load, divided by its unfrozen flow count) only rises as
// flows freeze, so each reallocation costs O(flows·pathlen·log links)
// rather than O(rounds·(links+flows)). All scratch buffers are reused
// across events, so steady-state event processing is allocation-free apart
// from the per-event completion wake-up.
//
// Time is a float64 in seconds; sizes are bits; rates are bits per second.
package netsim

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"github.com/mayflower-dfs/mayflower/internal/fabric"
	"github.com/mayflower-dfs/mayflower/internal/maxmin"
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
	linkPos     []int // position of this flow in linkFlows[links[i]]
	remaining   float64
	transferred float64
	rate        float64
	onComplete  func(float64)

	idx  int   // position in Sim.activeList
	mark int64 // visited-epoch for component collection
	gone bool  // removed from the model (guards stale seed pointers)
}

// linkEntry records one flow crossing a link, along with which hop of the
// flow's path this link is (so removal can fix the flow's linkPos).
type linkEntry struct {
	f  *simFlow
	li int
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
	topo     *topology.Topology
	capacity []float64

	now     float64
	nextID  FlowID
	nextSeq int64
	flows   map[FlowID]*simFlow
	events  eventHeap

	// Per-link flow index and dense active list; both are maintained
	// incrementally so reallocation and LinkRate never scan the whole
	// flow table.
	linkFlows  [][]linkEntry
	activeList []*simFlow

	linkBits []float64 // cumulative bits forwarded per directed link

	gen        int64 // rate-allocation generation, invalidates completions
	dirty      bool
	executing  bool
	rateNotify func()

	// Seeds for the next reallocation: flows added and links whose flow
	// set or capacity changed since the last one.
	seedFlows []*simFlow
	seedLinks []int

	// Scratch reused across reallocations (indexed by link id where
	// applicable); epoch stamps avoid clearing linkMark between events.
	epoch       int64
	linkMark    []int64
	rem         []float64
	nOn         []int
	compLinks   []int
	compFlows   []*simFlow
	satHeap     []satEntry
	doneScratch []*simFlow
	flowScratch []maxmin.Flow
	alloc       maxmin.Alloc

	met fabricMetrics
}

// fabricMetrics counts reallocation activity: how often rates were
// recomputed, which allocator ran, and how large the recomputed
// components were. All writers are atomic words, so the instrumentation
// never perturbs event ordering or rates.
type fabricMetrics struct {
	reallocs       obs.Counter
	globalFills    obs.Counter
	componentFills obs.Counter
	activeFlows    obs.Gauge
	componentFlows *obs.Histogram
}

// AttachMetrics publishes the simulator's reallocation counters into r
// under "netsim." names. Call before Run; the counters accumulate for
// the lifetime of the Sim regardless.
func (s *Sim) AttachMetrics(r *obs.Registry) {
	r.RegisterCounter("netsim.reallocs", &s.met.reallocs)
	r.RegisterCounter("netsim.global_fills", &s.met.globalFills)
	r.RegisterCounter("netsim.component_fills", &s.met.componentFills)
	r.RegisterGauge("netsim.active_flows", &s.met.activeFlows)
	r.RegisterHistogram("netsim.component_flows", s.met.componentFlows)
}

// globalFillCutoff selects the allocation strategy. At or below this many
// active flows, reallocate reruns the original global progressive filling
// (maxmin.Allocate's exact arithmetic), so small simulations — including
// every published figure — reproduce historical results bit-for-bit. Above
// it, where the global fill's O(rounds·(links+flows)) cost per event is
// unusable, the incremental component allocator takes over. The two differ
// only in floating-point rounding (increment association), never beyond
// ulps.
const globalFillCutoff = 512

// satEntry is a lazy min-heap entry: link saturates when the uniform fill
// level reaches level. Entries go stale when flows freeze on the link; a
// stale pop is detected by recomputing the level and re-queued.
type satEntry struct {
	level float64
	link  int
}

func satLess(a, b satEntry) bool {
	if a.level != b.level {
		return a.level < b.level
	}
	return a.link < b.link
}

func satPush(h []satEntry, e satEntry) []satEntry {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !satLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

// satPop removes the minimum entry (h[0]); callers read it first.
func satPop(h []satEntry) []satEntry {
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && satLess(h[l], h[m]) {
			m = l
		}
		if r < n && satLess(h[r], h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return h
}

// New creates a simulator for the given topology at time zero.
func New(topo *topology.Topology) *Sim {
	capacity := make([]float64, topo.NumLinks())
	for _, l := range topo.Links() {
		capacity[l.ID] = l.Capacity
	}
	sim := &Sim{
		topo:      topo,
		capacity:  capacity,
		flows:     make(map[FlowID]*simFlow),
		linkFlows: make([][]linkEntry, topo.NumLinks()),
		linkBits:  make([]float64, topo.NumLinks()),
		linkMark:  make([]int64, topo.NumLinks()),
		rem:       make([]float64, topo.NumLinks()),
		nOn:       make([]int, topo.NumLinks()),
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
		linkPos:    make([]int, len(links)),
		remaining:  cfg.Bits,
		onComplete: cfg.OnComplete,
	}
	s.flows[id] = f
	f.idx = len(s.activeList)
	s.activeList = append(s.activeList, f)
	for i, l := range links {
		f.linkPos[i] = len(s.linkFlows[l])
		s.linkFlows[l] = append(s.linkFlows[l], linkEntry{f: f, li: i})
	}
	s.seedFlows = append(s.seedFlows, f)
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

// removeFlow detaches a flow from the model and seeds its links for the
// next reallocation (the bandwidth it held is redistributed within its
// component).
func (s *Sim) removeFlow(f *simFlow) {
	delete(s.flows, f.id)
	last := s.activeList[len(s.activeList)-1]
	s.activeList[f.idx] = last
	last.idx = f.idx
	s.activeList[len(s.activeList)-1] = nil
	s.activeList = s.activeList[:len(s.activeList)-1]
	for i, l := range f.links {
		entries := s.linkFlows[l]
		pos := f.linkPos[i]
		lastE := entries[len(entries)-1]
		entries[pos] = lastE
		lastE.f.linkPos[lastE.li] = pos
		entries[len(entries)-1] = linkEntry{}
		s.linkFlows[l] = entries[:len(entries)-1]
		s.seedLinks = append(s.seedLinks, l)
	}
	f.gone = true
	s.dirty = true
}

// SetLinkCapacity changes the capacity of one directed link (bps >= 0;
// zero models a dead link, starving every flow crossing it). The affected
// component's rates are recomputed immediately.
func (s *Sim) SetLinkCapacity(id topology.LinkID, bps float64) {
	if bps < 0 {
		panic(fmt.Sprintf("netsim: negative capacity %g for link %d", bps, id))
	}
	s.capacity[id] = bps
	s.seedLinks = append(s.seedLinks, int(id))
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
	return f.rate
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
	var total float64
	for _, e := range s.linkFlows[id] {
		total += e.f.rate
	}
	return total
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
	for _, f := range s.activeList {
		if f.rate == 0 {
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
	for _, f := range s.activeList {
		moved := f.rate * dt
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

// reallocate recomputes max-min fair rates affected by the changes since
// the last reallocation and schedules the next completion event. Below
// globalFillCutoff it reruns the legacy global fill; above it only the
// affected component is recomputed.
func (s *Sim) reallocate() {
	s.dirty = false
	s.gen++
	s.met.reallocs.Inc()
	s.met.activeFlows.Set(int64(len(s.activeList)))
	if len(s.activeList) <= globalFillCutoff {
		s.met.globalFills.Inc()
		s.reallocateGlobal()
	} else {
		s.met.componentFills.Inc()
		s.reallocateComponent()
	}
	if s.rateNotify != nil {
		s.rateNotify()
	}

	// Schedule the next completion wake-up from fresh estimates over all
	// active flows. This is a single O(active) pass (no allocation); the
	// estimates are recomputed rather than cached so event timestamps
	// stay bit-identical with a full recompute.
	nextDone := math.Inf(1)
	for _, f := range s.activeList {
		if f.remaining <= completionEps {
			nextDone = s.now // already done (zero-size flow)
			continue
		}
		if f.rate > 0 {
			if t := s.now + f.remaining/f.rate; t < nextDone {
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

// reallocateGlobal reruns progressive filling over every active flow with
// maxmin's exact arithmetic (via reusable scratch, so still allocation
// free). Small simulations take this path so their results stay
// bit-identical with the historical global allocator.
func (s *Sim) reallocateGlobal() {
	s.seedFlows = s.seedFlows[:0]
	s.seedLinks = s.seedLinks[:0]
	flows := s.flowScratch[:0]
	for _, f := range s.activeList {
		flows = append(flows, maxmin.Flow{Links: f.links, Demand: math.Inf(1)})
	}
	s.flowScratch = flows
	rates := s.alloc.Allocate(s.capacity, flows)
	for i, f := range s.activeList {
		f.rate = rates[i]
	}
}

// reallocateComponent recomputes max-min fair rates for the connected
// component of links and flows affected by the accumulated seeds.
//
// Correctness: a flow keeps its rate unless it transitively shares a link
// with a changed flow or link. Collection is conservative — it walks every
// link of every reached flow, saturated or not — so the recomputed set is
// a union of whole max-min components and progressive filling inside it
// reproduces exactly what a global fill would assign those flows.
func (s *Sim) reallocateComponent() {
	s.epoch++
	epoch := s.epoch

	// Collect the affected component: BFS over links, where visiting a
	// link visits every flow on it and visiting a flow enqueues all its
	// links. nOn ends up as the total flow count per component link.
	que := s.compLinks[:0]
	comp := s.compFlows[:0]
	for _, f := range s.seedFlows {
		if f.gone || f.mark == epoch {
			continue
		}
		f.mark = epoch
		comp = append(comp, f)
		for _, l := range f.links {
			if s.linkMark[l] != epoch {
				s.linkMark[l] = epoch
				s.rem[l] = s.capacity[l]
				s.nOn[l] = 0
				que = append(que, l)
			}
			s.nOn[l]++
		}
	}
	for _, l := range s.seedLinks {
		if s.linkMark[l] != epoch {
			s.linkMark[l] = epoch
			s.rem[l] = s.capacity[l]
			s.nOn[l] = 0
			que = append(que, l)
		}
	}
	s.seedFlows = s.seedFlows[:0]
	s.seedLinks = s.seedLinks[:0]
	for qi := 0; qi < len(que); qi++ {
		for _, e := range s.linkFlows[que[qi]] {
			f := e.f
			if f.mark == epoch {
				continue
			}
			f.mark = epoch
			comp = append(comp, f)
			for _, l := range f.links {
				if s.linkMark[l] != epoch {
					s.linkMark[l] = epoch
					s.rem[l] = s.capacity[l]
					s.nOn[l] = 0
					que = append(que, l)
				}
				s.nOn[l]++
			}
		}
	}
	s.compLinks = que
	s.compFlows = comp
	s.met.componentFlows.Observe(float64(len(comp)))

	// Progressive filling over the component via link saturation levels:
	// all unfrozen rates rise uniformly, and link l saturates when the
	// level reaches rem[l]/nOn[l]. Freezing a flow at level λ removes λ
	// of load and one active flow from each of its links, which can only
	// raise their saturation levels — so a lazy min-heap of levels pops
	// links in saturation order, re-queueing entries whose key went
	// stale. rate < 0 marks a flow as not yet frozen.
	h := s.satHeap[:0]
	for _, l := range que {
		if n := s.nOn[l]; n > 0 {
			h = satPush(h, satEntry{level: s.rem[l] / float64(n), link: l})
		}
	}
	for _, f := range comp {
		f.rate = -1
	}
	level := 0.0
	for len(h) > 0 {
		e := h[0]
		h = satPop(h)
		n := s.nOn[e.link]
		if n == 0 {
			continue
		}
		cur := s.rem[e.link] / float64(n)
		if cur != e.level {
			// Flows froze on this link since the entry was pushed;
			// its saturation level rose. Re-queue at the current key.
			h = satPush(h, satEntry{level: cur, link: e.link})
			continue
		}
		if cur > level {
			level = cur
		}
		// Link saturates: freeze every unfrozen flow crossing it at the
		// current fill level.
		for _, le := range s.linkFlows[e.link] {
			f := le.f
			if f.rate >= 0 {
				continue
			}
			f.rate = level
			for _, m := range f.links {
				s.nOn[m]--
				s.rem[m] -= level
			}
		}
	}
	s.satHeap = h
	for _, f := range comp {
		if f.rate < 0 {
			// No capacitated link constrains this flow.
			f.rate = math.Inf(1)
		}
	}
}
