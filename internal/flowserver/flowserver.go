// Package flowserver implements Mayflower's core contribution: joint
// replica and network-path selection inside the SDN control plane (§4 of
// the paper).
//
// The Flowserver keeps a model of every filesystem read flow it has
// scheduled: the path it was assigned, its most recent bandwidth-share
// estimate, and its remaining bytes. When a client asks where to read a
// file from, Select scores every candidate path — internal/flowctl lists
// every shortest path from every replica to the client — and commits the
// one minimizing Eq. 2:
//
//	Cost(p) = d_j/b_j + Σ_{f ∈ F_p} ( r_f/b'_f − r_f/b_f )
//
// the sum of the new flow's expected completion time and the increase in
// completion time the new flow inflicts on flows already on the path.
// Bandwidth shares are estimated by per-link max-min water-filling where
// existing flows demand their current share and the new flow demands
// infinity (§4.2).
//
// Estimates committed at selection time are protected from being clobbered
// by the next (stale) switch-counter poll with the paper's update-freeze
// mechanism (Pseudocode 2), and reads can be split across two replicas
// when the combined share beats the single best replica (§4.3).
package flowserver

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"github.com/mayflower-dfs/mayflower/internal/maxmin"
	"github.com/mayflower-dfs/mayflower/internal/obs"
	"github.com/mayflower-dfs/mayflower/internal/topology"
)

// FlowID identifies a flow registered with the Flowserver.
type FlowID int64

// ErrNoReplicas is returned when a request carries no replica locations.
var ErrNoReplicas = errors.New("flowserver: request has no replicas")

// Options tune the selection algorithm; the zero value is the full paper
// algorithm.
type Options struct {
	// DisableImpactTerm drops the second term of Eq. 2 (the increase in
	// completion time of existing flows), reducing the cost to the new
	// flow's own completion time. Ablation only.
	DisableImpactTerm bool
	// DisableFreeze disables the update-freeze slack (Pseudocode 2),
	// letting every stats poll overwrite bandwidth estimates. Ablation
	// only.
	DisableFreeze bool
	// Now supplies the current time in seconds; defaults to a clock that
	// only advances via stats polls (simulation callers inject the
	// simulator clock).
	Now func() float64
	// Metrics is the instrumentation set the server counts into; a fresh
	// private one when nil. Servers that are shards of one in-process
	// control plane share a set, so its counters cover the whole plane
	// and publish once (see Metrics.Register).
	Metrics *Metrics
	// IDBase and IDStride partition the flow-id space between cooperating
	// servers: ids are assigned IDBase, IDBase+IDStride, IDBase+2·IDStride…
	// The internal/flowctl shards use (k+1, N) so ids stay globally unique
	// without coordination while every server still assigns strictly
	// increasing ids (the per-link flow lists rely on that). Zero values
	// mean the unpartitioned sequence 1, 2, 3, …
	IDBase   int64
	IDStride int64
}

// MaxPollSkew bounds, in seconds, how far a poll's caller-supplied
// timestamp may disagree with an injected model clock (Options.Now)
// before the whole poll is rejected. Freeze horizons are set from the
// model clock, so a poll stamped far in the model's future would expire
// every freeze early and one stamped in the past would never expire any.
// Real deployments poll every ~1s with microsecond-level clock agreement;
// 5 seconds rejects only polls that are unambiguously from a different
// clock domain.
const MaxPollSkew = 5.0

// Metrics holds a controller's instrumentation. Counters are plain atomic
// words touched directly on the hot path; a registry (see Register) holds
// pointers to these same fields. The exported fields are the per-request
// counters a flowctl coordinator bumps: it sees a request whole, while
// Select runs once per read and once per write hop.
type Metrics struct {
	Selections      obs.Counter
	WriteSelections obs.Counter
	SelectSeconds   *obs.Histogram

	candidates          obs.Counter
	multiAccepts        obs.Counter
	multiRejects        obs.Counter
	freezeHits          obs.Counter
	freezeExpirations   obs.Counter
	polls               obs.Counter
	pollSamples         obs.Counter
	pollDropsDT         obs.Counter
	pollDropsRegress    obs.Counter
	pollDropsSkewFuture obs.Counter
	pollDropsSkewPast   obs.Counter
}

// NewMetrics creates an unregistered metrics set (the histogram must
// exist even without a registry).
func NewMetrics() *Metrics {
	return &Metrics{SelectSeconds: obs.NewHistogram(1e-6, 10)}
}

// Register publishes the metric fields into r under "flowserver." names.
func (m *Metrics) Register(r *obs.Registry) {
	r.RegisterCounter("flowserver.selections", &m.Selections)
	r.RegisterCounter("flowserver.write_selections", &m.WriteSelections)
	r.RegisterCounter("flowserver.candidates_evaluated", &m.candidates)
	r.RegisterCounter("flowserver.multi_accepts", &m.multiAccepts)
	r.RegisterCounter("flowserver.multi_rejects", &m.multiRejects)
	r.RegisterCounter("flowserver.freeze_hits", &m.freezeHits)
	r.RegisterCounter("flowserver.freeze_expirations", &m.freezeExpirations)
	r.RegisterCounter("flowserver.polls", &m.polls)
	r.RegisterCounter("flowserver.poll_samples", &m.pollSamples)
	r.RegisterCounter("flowserver.poll_drops_dt", &m.pollDropsDT)
	r.RegisterCounter("flowserver.poll_drops_regress", &m.pollDropsRegress)
	r.RegisterCounter("flowserver.poll_drops_skew_future", &m.pollDropsSkewFuture)
	r.RegisterCounter("flowserver.poll_drops_skew_past", &m.pollDropsSkewPast)
	r.RegisterHistogram("flowserver.select_seconds", m.SelectSeconds)
}

// StatsCounters is a cumulative snapshot of the selection, poll and
// freeze accounting, for drift-audit reports (which subtract a baseline
// taken at run start).
type StatsCounters struct {
	Selections          int64
	WriteSelections     int64
	CandidatesEvaluated int64
	MultiAccepts        int64
	MultiRejects        int64
	FreezeHits          int64
	FreezeExpirations   int64
	Polls               int64
	PollSamples         int64
	PollDropsDT         int64
	PollDropsRegress    int64
	PollDropsSkewFuture int64
	PollDropsSkewPast   int64
}

// Counters snapshots the set's cumulative counters.
func (m *Metrics) Counters() StatsCounters {
	return StatsCounters{
		Selections:          m.Selections.Value(),
		WriteSelections:     m.WriteSelections.Value(),
		CandidatesEvaluated: m.candidates.Value(),
		MultiAccepts:        m.multiAccepts.Value(),
		MultiRejects:        m.multiRejects.Value(),
		FreezeHits:          m.freezeHits.Value(),
		FreezeExpirations:   m.freezeExpirations.Value(),
		Polls:               m.polls.Value(),
		PollSamples:         m.pollSamples.Value(),
		PollDropsDT:         m.pollDropsDT.Value(),
		PollDropsRegress:    m.pollDropsRegress.Value(),
		PollDropsSkewFuture: m.pollDropsSkewFuture.Value(),
		PollDropsSkewPast:   m.pollDropsSkewPast.Value(),
	}
}

// Counters returns the cumulative counters of the server's metrics set.
func (s *Server) Counters() StatsCounters { return s.met.Counters() }

// Request asks for a read assignment.
type Request struct {
	// Client is the host that will read the data.
	Client topology.NodeID
	// Replicas are the hosts holding a copy of the file.
	Replicas []topology.NodeID
	// Bits is the amount of data to read.
	Bits float64
}

// Assignment is one flow of a read: fetch Bits bits of the file from
// Replica over Path. A read split across two replicas yields two
// assignments. A replica co-located with the client yields a single
// assignment with an empty path and infinite bandwidth (a local read).
type Assignment struct {
	FlowID      FlowID
	Replica     topology.NodeID
	Path        topology.Path
	Bits        float64
	EstimatedBw float64
}

// Local reports whether the assignment is a local (zero network cost) read.
func (a Assignment) Local() bool { return len(a.Path) == 0 }

// Candidate is one option Select scores: a flow to or from Endpoint (the
// replica of a read, the target of a write hop) over Path.
type Candidate struct {
	Endpoint topology.NodeID
	Path     topology.Path
	// Own is the part of Path this server models, in path order, and Cap
	// the share the rest of the path grants the flow. On a one-shard
	// plane Own is Path and Cap is +Inf.
	Own topology.Path
	Cap float64
}

type flowState struct {
	id          FlowID
	links       []int
	totalBits   float64
	remaining   float64
	bw          float64
	frozen      bool
	freezeUntil float64
	transferred float64
	lastPoll    float64
	movedAt     float64 // model time of the last poll its counter grew in
	stalled     int     // polls past freezeUntil since it last grew
}

// Server is the Flowserver: it runs inside the SDN controller and owns the
// global flow model. All methods are safe for concurrent use.
type Server struct {
	capacity []float64
	opts     Options

	mu     sync.Mutex
	clock  float64 // last known time when opts.Now is nil
	nextID FlowID
	idStep FlowID
	flows  map[FlowID]*flowState
	// linkFlows[l] holds the flows crossing link l, sorted by ascending
	// id. It is maintained incrementally by commit, FlowFinished and
	// restore so path evaluation never collects-and-sorts, and it stores
	// the flow states directly so the hot path never hits the flows map.
	linkFlows [][]*flowState

	// Scratch reused across path evaluations (callers hold mu).
	mm            maxmin.Alloc
	demandScratch []float64
	// evalBufs double-buffers the changed-flow sets: the set held by the
	// current best candidate lives in one slot (two ping-pong buffers for
	// merging) while the next candidate is evaluated into the other
	// (argmin swaps slots on every new best).
	evalBufs [2][2]changeSet
	evalIdx  int

	met *Metrics
}

// changeSet records the existing flows whose bandwidth estimate changes if
// a candidate path is chosen, with their new shares. Both slices are
// parallel and sorted by ascending flow id.
type changeSet struct {
	flows  []*flowState
	shares []float64
}

// New creates a Flowserver over the given topology.
func New(topo *topology.Topology, opts Options) *Server {
	capacity := make([]float64, topo.NumLinks())
	for _, l := range topo.Links() {
		capacity[l.ID] = l.Capacity
	}
	step := FlowID(opts.IDStride)
	if step <= 0 {
		step = 1
	}
	base := FlowID(opts.IDBase)
	if base <= 0 {
		base = 1
	}
	s := &Server{
		capacity:  capacity,
		opts:      opts,
		idStep:    step,
		nextID:    base - step,
		flows:     make(map[FlowID]*flowState),
		linkFlows: make([][]*flowState, topo.NumLinks()),
		met:       opts.Metrics,
	}
	if s.met == nil {
		s.met = NewMetrics()
	}
	return s
}

// insertFlow inserts f into an id-sorted flow slice. Ids are assigned in
// increasing order, so outside of post-rollback re-commits this is a plain
// append.
func insertFlow(fs []*flowState, f *flowState) []*flowState {
	if n := len(fs); n == 0 || fs[n-1].id < f.id {
		return append(fs, f)
	}
	i := sort.Search(len(fs), func(i int) bool { return fs[i].id >= f.id })
	fs = append(fs, nil)
	copy(fs[i+1:], fs[i:])
	fs[i] = f
	return fs
}

// removeFlow removes the flow with the given id from an id-sorted flow
// slice (no-op when absent).
func removeFlow(fs []*flowState, id FlowID) []*flowState {
	i := sort.Search(len(fs), func(i int) bool { return fs[i].id >= id })
	if i >= len(fs) || fs[i].id != id {
		return fs
	}
	return append(fs[:i], fs[i+1:]...)
}

func (s *Server) now() float64 {
	if s.opts.Now != nil {
		return s.opts.Now()
	}
	return s.clock
}

// NumFlows returns the number of flows currently registered.
func (s *Server) NumFlows() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.flows)
}

// ErrNoCandidates is returned by a selection given no candidate path.
var ErrNoCandidates = errors.New("flowserver: no candidate path")

// noEndpoint is an argmin skip that skips nothing.
const noEndpoint topology.NodeID = -1

// Select is Pseudocode 1: it scores every candidate by Eq. 2 and
// registers the cheapest (the first of equals) as a new flow of bits on
// the links it owns, applying SETBW to the flow and to every modeled
// flow the admission squeezes, all under one hold of the model lock. It
// returns the flow's assignment and the winner's index in cands. bits
// must not be negative; the caller reports the flow's completion with
// FlowFinished and feeds switch counters via UpdateFlowStats.
func (s *Server) Select(cands []Candidate, bits float64) (Assignment, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	best, ok := s.argmin(cands, bits, noEndpoint)
	if !ok {
		return Assignment{}, -1, ErrNoCandidates
	}
	return s.commit(cands[best.idx], best, bits), best.idx, nil
}

// SelectSplit is Select with the §4.3 split read: it commits the
// winner, runs the same loop again over the other endpoints'
// candidates, and keeps the pair only if their combined share beats the
// winner's alone, sized so both subflows finish together. Otherwise the
// model rolls back to the winner as a single flow. Every candidate must
// be wholly owned: the rollback restores this model only.
func (s *Server) SelectSplit(cands []Candidate, bits float64) ([]Assignment, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	best, ok := s.argmin(cands, bits, noEndpoint)
	if !ok {
		return nil, ErrNoCandidates
	}
	first := cands[best.idx]
	snap := s.snapshot()
	a1 := s.commit(first, best, bits)
	second, ok := s.argmin(cands, bits, first.Endpoint)
	if !ok {
		return []Assignment{a1}, nil
	}
	a2 := s.commit(cands[second.idx], second, bits)

	// The second subflow may have squeezed the first one.
	b1p := s.flows[a1.FlowID].bw
	combined := b1p + second.bw
	if combined <= best.bw+bwEps {
		// Roll back everything the tentative pair touched. The model is
		// back to its pre-selection state, so re-scoring the winner
		// reproduces it exactly (best.changed itself may have been
		// recycled while scoring the second subflow).
		s.restore(snap)
		a1 = s.commit(first, s.evalPathCapped(first.Own, bits, first.Cap), bits)
		s.met.multiRejects.Inc()
		return []Assignment{a1}, nil
	}
	s.met.multiAccepts.Inc()

	// Split sizes proportionally to bandwidth so subflows finish together.
	s1 := bits * b1p / combined
	s2 := bits - s1
	s.resize(a1.FlowID, s1)
	s.resize(a2.FlowID, s2)
	a1.Bits, a1.EstimatedBw = s1, b1p
	a2.Bits = s2
	return []Assignment{a1, a2}, nil
}

// scored is one candidate's Eq. 2 evaluation.
type scored struct {
	idx  int // the candidate's index in the list argmin scored
	bw   float64
	cost float64
	// changed holds the post-admission share of each existing flow whose
	// estimate changes if this candidate is chosen. It aliases one of the
	// server's eval buffers: valid until the second evaluation after this
	// one becomes best (argmin swaps slots on every new best), and
	// consumed by commit.
	changed *changeSet
}

// argmin scores every candidate whose endpoint is not skip and returns
// the cheapest, the first of equals. Caller must hold s.mu.
func (s *Server) argmin(cands []Candidate, bits float64, skip topology.NodeID) (scored, bool) {
	var best scored
	found := false
	evaluated := int64(0)
	for i := range cands {
		c := &cands[i]
		if c.Endpoint == skip {
			continue
		}
		sc := s.evalPathCapped(c.Own, bits, c.Cap)
		evaluated++
		if !found || sc.cost < best.cost {
			best, best.idx, found = sc, i, true
			// Protect the new best's changed set from being overwritten
			// by the next evaluation.
			s.evalIdx ^= 1
		}
	}
	s.met.candidates.Add(evaluated)
	return best, found
}

// evalPathCapped computes the Eq. 2 cost of placing a new flow of the
// given size on the links of path this server models (Pseudocode 2,
// FLOWCOST), the flow's demand capped at capBw: the share granted by
// the links outside the model, +Inf when there are none. Caller must
// hold s.mu.
func (s *Server) evalPathCapped(path topology.Path, bits, capBw float64) scored {
	// Estimated share of the new flow: water-fill each link with existing
	// flows demanding their current share and the new flow demanding
	// infinity; the path share is the bottleneck minimum (MAXMINSHARE).
	bw := math.Inf(1)
	for _, lid := range path {
		l := int(lid)
		share := s.mm.ShareOnLink(s.capacity[l], s.demandsOn(l))
		if share < bw {
			bw = share
		}
	}
	if bw > capBw {
		bw = capBw
	}

	cost := 0.0
	if bw > 0 {
		cost = bits / bw
	} else {
		cost = math.Inf(1)
	}

	// Impact on existing flows: re-water-fill each path link with the new
	// flow's demand pinned to bw; a flow crossing several path links gets
	// the most pessimistic (minimum) of its per-link shares. The per-link
	// flow lists are sorted by id, so min-merging them keeps the changed
	// set in ascending id order without a per-evaluation sort or map.
	cur := &s.evalBufs[s.evalIdx][0]
	nxt := &s.evalBufs[s.evalIdx][1]
	cur.flows, cur.shares = cur.flows[:0], cur.shares[:0]
	for _, lid := range path {
		l := int(lid)
		onLink := s.linkFlows[l]
		if len(onLink) == 0 {
			continue
		}
		shares, _ := s.mm.SharesWithNewFlow(s.capacity[l], s.demandsOn(l), bw)
		if len(cur.flows) == 0 {
			cur.flows = append(cur.flows, onLink...)
			cur.shares = append(cur.shares, shares...)
			continue
		}
		nxt.flows, nxt.shares = nxt.flows[:0], nxt.shares[:0]
		i, j := 0, 0
		for i < len(cur.flows) && j < len(onLink) {
			switch {
			case cur.flows[i].id < onLink[j].id:
				nxt.flows = append(nxt.flows, cur.flows[i])
				nxt.shares = append(nxt.shares, cur.shares[i])
				i++
			case cur.flows[i].id > onLink[j].id:
				nxt.flows = append(nxt.flows, onLink[j])
				nxt.shares = append(nxt.shares, shares[j])
				j++
			default:
				v := cur.shares[i]
				if shares[j] < v {
					v = shares[j]
				}
				nxt.flows = append(nxt.flows, cur.flows[i])
				nxt.shares = append(nxt.shares, v)
				i++
				j++
			}
		}
		nxt.flows = append(nxt.flows, cur.flows[i:]...)
		nxt.shares = append(nxt.shares, cur.shares[i:]...)
		nxt.flows = append(nxt.flows, onLink[j:]...)
		nxt.shares = append(nxt.shares, shares[j:]...)
		cur, nxt = nxt, cur
	}
	// Walk the changed set in ascending id order — float summation is not
	// associative, so any other order would make equal-cost comparisons
	// (and therefore selections) run-dependent — dropping flows whose
	// share does not actually change (they contribute no cost and must
	// not be re-frozen by commit).
	keep := 0
	for i, f := range cur.flows {
		nbw := cur.shares[i]
		if nbw >= f.bw-bwEps || f.remaining <= 0 {
			continue
		}
		if !s.opts.DisableImpactTerm {
			if nbw <= 0 {
				cost = math.Inf(1)
			} else {
				cost += f.remaining/nbw - f.remaining/f.bw
			}
		}
		cur.flows[keep], cur.shares[keep] = f, nbw
		keep++
	}
	cur.flows, cur.shares = cur.flows[:keep], cur.shares[:keep]
	return scored{bw: bw, cost: cost, changed: cur}
}

const bwEps = 1e-9

// demandsOn returns the current bandwidth-share demands of flows assigned
// to a link, in flow-id order (the water-filling arithmetic is float and
// therefore order-sensitive at the last bit). The returned slice is scratch
// backed, valid until the next call. Caller must hold s.mu.
func (s *Server) demandsOn(link int) []float64 {
	d := s.demandScratch[:0]
	for _, f := range s.linkFlows[link] {
		d = append(d, f.bw)
	}
	s.demandScratch = d
	return d
}

// commit registers the scored candidate as a live flow under the next
// id and applies SETBW to it and to every existing flow whose estimate
// changed (Pseudocode 1, lines 9-11). Caller must hold s.mu.
func (s *Server) commit(c Candidate, sc scored, bits float64) Assignment {
	s.nextID += s.idStep
	s.commitAs(s.nextID, c.Own, sc, bits)
	return Assignment{FlowID: s.nextID, Replica: c.Endpoint, Path: c.Path, Bits: bits, EstimatedBw: sc.bw}
}

// commitAs registers a scored flow on links under an explicit id
// without touching the id sequence (foreign commits carry the
// coordinator's id). Caller must hold s.mu.
func (s *Server) commitAs(id FlowID, links topology.Path, sc scored, bits float64) {
	ls := make([]int, len(links))
	for i, l := range links {
		ls[i] = int(l)
	}
	f := &flowState{
		id:        id,
		links:     ls,
		totalBits: bits,
		remaining: bits,
		lastPoll:  s.now(),
		movedAt:   s.now(),
	}
	s.flows[id] = f
	for _, l := range ls {
		s.linkFlows[l] = insertFlow(s.linkFlows[l], f)
	}
	s.setBW(f, sc.bw)
	for i, cf := range sc.changed.flows {
		s.setBW(cf, sc.changed.shares[i])
	}
}

// setBW implements SETBW from Pseudocode 2: record the estimate and freeze
// it for the flow's expected completion time.
func (s *Server) setBW(f *flowState, bw float64) {
	f.bw = bw
	if s.opts.DisableFreeze {
		return
	}
	if bw > 0 && !math.IsInf(bw, 1) {
		f.freezeUntil = s.now() + f.remaining/bw
	} else {
		f.freezeUntil = s.now()
	}
	f.frozen = true
}

// resize adjusts a freshly committed flow's size and refreshes its freeze
// horizon. Caller must hold s.mu.
func (s *Server) resize(id FlowID, bits float64) {
	f := s.flows[id]
	f.totalBits = bits
	f.remaining = bits
	s.setBW(f, f.bw)
}

// modelSnapshot captures the full flow model for rollback, including the
// id counter: without it a rejected multi-replica probe would burn flow
// ids, making the accepted flow's id depend on rolled-back work.
type modelSnapshot struct {
	nextID FlowID
	flows  map[FlowID]flowState
}

// snapshot captures the flow model for rollback. Caller must hold s.mu.
func (s *Server) snapshot() modelSnapshot {
	snap := modelSnapshot{
		nextID: s.nextID,
		flows:  make(map[FlowID]flowState, len(s.flows)),
	}
	for id, f := range s.flows {
		snap.flows[id] = *f
	}
	return snap
}

// restore rolls the flow model back to a snapshot, dropping flows created
// after it was taken (and their per-link index entries). Caller must hold
// s.mu.
func (s *Server) restore(snap modelSnapshot) {
	for id, f := range s.flows {
		if _, ok := snap.flows[id]; !ok {
			for _, l := range f.links {
				s.linkFlows[l] = removeFlow(s.linkFlows[l], id)
			}
			delete(s.flows, id)
		}
	}
	for id, saved := range snap.flows {
		f := s.flows[id]
		state := saved
		*f = state
	}
	s.nextID = snap.nextID
	if restoreHook != nil {
		restoreHook(s)
	}
}

// restoreHook, when non-nil, runs immediately after every rollback with
// s.mu held. Tests install an invariant checker here to pin the
// snapshot/restore path; it is nil in production.
var restoreHook func(*Server)

// SetLinkCapacity overrides the modeled capacity of one directed link.
// The paper's cost example (§4.2) notes that heterogeneous link capacities
// change path choice; this supports fabrics whose links differ from the
// topology's nominal capacities.
func (s *Server) SetLinkCapacity(id topology.LinkID, bps float64) error {
	if bps <= 0 {
		return fmt.Errorf("flowserver: capacity must be > 0, got %g", bps)
	}
	if int(id) < 0 || int(id) >= len(s.capacity) {
		return fmt.Errorf("flowserver: unknown link %d", id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.capacity[id] = bps
	return nil
}

// FlowFinished removes a completed (or aborted) flow from the model.
// Unknown ids are ignored, mirroring a switch evicting an expired entry.
func (s *Server) FlowFinished(id FlowID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.flows[id]
	if !ok {
		return
	}
	for _, l := range f.links {
		s.linkFlows[l] = removeFlow(s.linkFlows[l], id)
	}
	delete(s.flows, id)
}

// FlowStat is one flow's byte counter as read from an edge switch.
type FlowStat struct {
	ID FlowID
	// TransferredBits is the cumulative counter value.
	TransferredBits float64
}

// StallPolls is how many polls past its freeze horizon a flow's counter
// may stand still before a poll proves it over: 1 s at the testbed's
// 250 ms interval, long enough that a flow the fabric only slows moves.
const StallPolls = 4

// UpdateFlowStats ingests a stats-poll cycle taken at time now: for each
// flow, the measured bandwidth since the previous poll and the remaining
// size are derived from the byte counter. Bandwidth estimates honour the
// update-freeze state (Pseudocode 2, UPDATEBW); remaining sizes always
// update, since counters are ground truth for progress.
//
// It returns, in id order, the flows the poll proves over — remaining 0,
// or StallPolls polls past the freeze horizon without counter growth —
// for the caller to retire (Hooks.Retire): a dead client leaves no ghost.
//
// Clock domains: freeze horizons (setBW) are stamped from the model clock
// — opts.Now when injected, else s.clock, which only poll timestamps
// advance. All freeze comparisons here use that same model clock. When
// Now is injected, a poll whose caller-supplied timestamp disagrees with
// the model clock by more than MaxPollSkew is rejected whole (counted by
// skew direction): its dt and freeze decisions would be computed against
// horizons from a different clock. When Now is nil, a poll stamped before
// the clock's high-water mark is a replay of the past and is rejected the
// same way.
func (s *Server) UpdateFlowStats(now float64, stats []FlowStat) []FlowID {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.met.polls.Inc()
	if s.opts.Now == nil {
		if now < s.clock {
			s.met.pollDropsSkewPast.Inc()
			return nil
		}
		s.clock = now
	} else {
		model := s.opts.Now()
		if now > model+MaxPollSkew {
			s.met.pollDropsSkewFuture.Inc()
			return nil
		}
		if now < model-MaxPollSkew {
			s.met.pollDropsSkewPast.Inc()
			return nil
		}
		// Within tolerance: re-stamp the poll onto the model clock so dt
		// and freeze-expiry checks share one time base.
		now = model
	}
	for _, st := range stats {
		f, ok := s.flows[st.ID]
		if !ok {
			continue
		}
		// A duplicate, reordered or regressed sample (the chaos
		// flowserver-stall proxy can replay polls out of order) carries
		// no new information; applying it would roll the flow's
		// remaining size and counter backward. Drop it before touching
		// any state.
		dt := now - f.lastPoll
		if dt <= 0 {
			s.met.pollDropsDT.Inc()
			continue
		}
		if st.TransferredBits < f.transferred {
			s.met.pollDropsRegress.Inc()
			continue
		}
		s.met.pollSamples.Inc()
		f.remaining = f.totalBits - st.TransferredBits
		if f.remaining < 0 {
			f.remaining = 0
		}
		measured := (st.TransferredBits - f.transferred) / dt
		if st.TransferredBits > f.transferred {
			f.movedAt, f.stalled = now, 0
		}
		f.transferred = st.TransferredBits
		f.lastPoll = now
		// Pseudocode 2 freezes the estimate until the flow's expected
		// completion, so a poll landing exactly at the horizon already
		// sees it expired.
		if s.opts.DisableFreeze || !f.frozen || now >= f.freezeUntil {
			if f.frozen && now >= f.freezeUntil {
				s.met.freezeExpirations.Inc()
			}
			f.bw = measured
			f.frozen = false
		} else {
			s.met.freezeHits.Inc()
		}
	}
	var over []FlowID
	for _, f := range s.flows {
		if f.remaining > 0 && f.movedAt != now && now >= f.freezeUntil {
			f.stalled++ // due to have finished, and did not move
		}
		if f.remaining <= 0 || f.stalled >= StallPolls {
			over = append(over, f.id)
		}
	}
	slices.Sort(over)
	return over
}

// EstimatedBW returns the Flowserver's current bandwidth estimate for a
// flow (for inspection and tests); ok is false for unknown flows.
func (s *Server) EstimatedBW(id FlowID) (bw float64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.flows[id]
	if !ok {
		return 0, false
	}
	return f.bw, true
}
