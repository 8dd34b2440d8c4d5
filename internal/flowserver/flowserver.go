// Package flowserver implements Mayflower's core contribution: joint
// replica and network-path selection inside the SDN control plane (§4 of
// the paper).
//
// The Flowserver keeps a model of every filesystem read flow it has
// scheduled: the path it was assigned, its most recent bandwidth-share
// estimate, and its remaining bytes. When a client asks where to read a
// file from, the Flowserver evaluates every shortest path from every
// replica to the client and picks the one minimizing Eq. 2:
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
	"time"

	"github.com/mayflower-dfs/mayflower/internal/maxmin"
	"github.com/mayflower-dfs/mayflower/internal/obs"
	"github.com/mayflower-dfs/mayflower/internal/topology"
)

// FlowID identifies a flow registered with the Flowserver.
type FlowID int64

// ErrNoReplicas is returned when a request carries no replica locations.
var ErrNoReplicas = errors.New("flowserver: request has no replicas")

// Options tune the selection algorithm; the zero value is the full paper
// algorithm with multi-replica reads disabled (they are an explicit
// optimization, enabled by MultiReplica).
type Options struct {
	// MultiReplica enables splitting a read across two replicas when the
	// combined estimated bandwidth beats the best single replica (§4.3).
	MultiReplica bool
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
	// MaxPollSkew bounds how far a poll's caller-supplied timestamp may
	// disagree with the model clock (Now) before the whole poll is
	// rejected, in seconds. Freeze horizons are set from the model clock,
	// so a poll stamped far in the model's future would expire every
	// freeze early and one stamped in the past would never expire any;
	// neither can be interpreted safely. 0 means DefaultMaxPollSkew;
	// negative disables the check. Only consulted when Now is injected —
	// without Now the poll timestamps *are* the clock.
	MaxPollSkew float64
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

// DefaultMaxPollSkew is the poll-timestamp skew tolerance when
// Options.MaxPollSkew is zero. Real deployments poll every ~1s with
// microsecond-level clock agreement; 5 seconds rejects only polls that
// are unambiguously from a different clock domain.
const DefaultMaxPollSkew = 5.0

// Metrics holds a controller's instrumentation. Counters are plain atomic
// words touched directly on the hot path; a registry (see Register) holds
// pointers to these same fields. The exported fields are the selection
// counters a flowctl coordinator bumps itself: its selections run above
// the embedded Server, which only sees the commits.
type Metrics struct {
	Selections      obs.Counter
	WriteSelections obs.Counter
	Candidates      obs.Counter
	SelectSeconds   *obs.Histogram

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
	r.RegisterCounter("flowserver.candidates_evaluated", &m.Candidates)
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
		CandidatesEvaluated: m.Candidates.Value(),
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
	topo     *topology.Topology
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
	// (bestPath swaps slots on every new best).
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
		topo:      topo,
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

// SelectReplicaAndPath runs the replica–path selection algorithm
// (Pseudocode 1) and registers the resulting flow(s) in the model. The
// caller must report flow completion with FlowFinished and should feed
// switch counters via UpdateFlowStats.
func (s *Server) SelectReplicaAndPath(req Request) ([]Assignment, error) {
	if len(req.Replicas) == 0 {
		return nil, ErrNoReplicas
	}
	if req.Bits < 0 {
		return nil, fmt.Errorf("flowserver: negative read size %g", req.Bits)
	}
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	as, err := s.selectLocked(req, s.opts.MultiReplica)
	s.met.Selections.Inc()
	s.met.SelectSeconds.Observe(time.Since(start).Seconds())
	return as, err
}

// selectLocked runs selection with an explicit multi-replica setting.
// Caller must hold s.mu.
func (s *Server) selectLocked(req Request, allowMulti bool) ([]Assignment, error) {
	// A co-located replica costs nothing; every policy prefers it.
	for _, r := range req.Replicas {
		if r == req.Client {
			s.nextID += s.idStep
			return []Assignment{{
				FlowID:      s.nextID,
				Replica:     r,
				Bits:        req.Bits,
				EstimatedBw: math.Inf(1),
			}}, nil
		}
	}

	best, ok := s.bestPath(req.Client, req.Replicas, req.Bits, nil)
	if !ok {
		return nil, fmt.Errorf("flowserver: no path from any replica to client %d", req.Client)
	}

	if !allowMulti || len(req.Replicas) < 2 {
		a := s.commit(best, req.Bits)
		return []Assignment{a}, nil
	}
	return s.selectMulti(req, best), nil
}

// SelectPath is the path-only scheduler: the replica is already chosen and
// only the network path is optimized (used by the Nearest-Mayflower and
// Sinbad-R-Mayflower baselines, §6.2). It registers the flow like
// SelectReplicaAndPath.
func (s *Server) SelectPath(client, replica topology.NodeID, bits float64) (Assignment, error) {
	if bits < 0 {
		return Assignment{}, fmt.Errorf("flowserver: negative read size %g", bits)
	}
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	as, err := s.selectLocked(Request{Client: client, Replicas: []topology.NodeID{replica}, Bits: bits}, false)
	s.met.Selections.Inc()
	s.met.SelectSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		return Assignment{}, err
	}
	return as[0], nil
}

// candidate is a scored replica-path option.
type candidate struct {
	replica topology.NodeID
	path    topology.Path
	bw      float64
	cost    float64
	// changed holds the post-admission share of each existing flow whose
	// estimate changes if this path is chosen. It aliases one of the
	// server's eval buffers: valid until the second evalPath after this
	// candidate becomes best (bestPath swaps slots on every new best),
	// and consumed by commit.
	changed *changeSet
}

// bestPath evaluates all shortest paths from the replicas to the client
// and returns the minimum-cost candidate. exclude removes replicas from
// consideration (used when picking the second subflow).
// Caller must hold s.mu.
func (s *Server) bestPath(client topology.NodeID, replicas []topology.NodeID, bits float64, exclude map[topology.NodeID]bool) (candidate, bool) {
	var best candidate
	found := false
	evaluated := int64(0)
	for _, rep := range replicas {
		if exclude[rep] || rep == client {
			continue
		}
		for _, path := range s.topo.ShortestPaths(rep, client) {
			c := s.evalPath(rep, path, bits)
			evaluated++
			if !found || c.cost < best.cost {
				best = c
				found = true
				// Protect the new best's changed set from being
				// overwritten by the next evaluation.
				s.evalIdx ^= 1
			}
		}
	}
	s.met.Candidates.Add(evaluated)
	return best, found
}

// evalPath computes the Eq. 2 cost of placing a new flow of the given size
// on the path (Pseudocode 2, FLOWCOST). Caller must hold s.mu.
func (s *Server) evalPath(replica topology.NodeID, path topology.Path, bits float64) candidate {
	return s.evalPathCapped(replica, path, bits, math.Inf(1))
}

// evalPathCapped is evalPath with the new flow's demand capped at capBw:
// the share granted by links outside this server's model (a flowctl
// coordinator passes the bottleneck estimate of the remote sub-path).
// With capBw = +Inf it is exactly the historical evalPath. Caller must
// hold s.mu.
func (s *Server) evalPathCapped(replica topology.NodeID, path topology.Path, bits, capBw float64) candidate {
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
	return candidate{replica: replica, path: path, bw: bw, cost: cost, changed: cur}
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

// commit registers the winning candidate as a live flow and applies SETBW
// to it and to every existing flow whose estimate changed (Pseudocode 1,
// lines 9-11). Caller must hold s.mu.
func (s *Server) commit(c candidate, bits float64) Assignment {
	s.nextID += s.idStep
	return s.commitAs(s.nextID, c, bits)
}

// commitAs registers the candidate under an explicit flow id without
// touching the id sequence (foreign commits carry the coordinator's id).
// Caller must hold s.mu.
func (s *Server) commitAs(id FlowID, c candidate, bits float64) Assignment {
	links := make([]int, len(c.path))
	for i, l := range c.path {
		links[i] = int(l)
	}
	f := &flowState{
		id:        id,
		links:     links,
		totalBits: bits,
		remaining: bits,
		lastPoll:  s.now(),
		movedAt:   s.now(),
	}
	s.flows[id] = f
	for _, l := range links {
		s.linkFlows[l] = insertFlow(s.linkFlows[l], f)
	}
	s.setBW(f, c.bw)
	for i, cf := range c.changed.flows {
		s.setBW(cf, c.changed.shares[i])
	}
	return Assignment{FlowID: id, Replica: c.replica, Path: c.path, Bits: bits, EstimatedBw: c.bw}
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

// selectMulti implements the §4.3 multi-replica split: commit the best
// single candidate, try a second subflow from a different replica, and
// keep the pair only if the combined share beats the single flow.
// Caller must hold s.mu.
func (s *Server) selectMulti(req Request, best candidate) []Assignment {
	snap := s.snapshot()

	b1 := best.bw
	a1 := s.commit(best, req.Bits)

	second, ok := s.bestPath(req.Client, req.Replicas, req.Bits,
		map[topology.NodeID]bool{best.replica: true})
	if !ok {
		return []Assignment{a1}
	}
	a2 := s.commit(second, req.Bits)

	// The second subflow may have squeezed the first one.
	b1p := s.flows[a1.FlowID].bw
	b2 := second.bw
	combined := b1p + b2
	if combined <= b1+bwEps {
		// Roll back everything the tentative pair touched. The model is
		// back to its pre-selection state, so re-evaluating the winning
		// path reproduces the original candidate exactly (best.changed
		// itself may have been recycled while scoring the second
		// subflow).
		s.restore(snap)
		c := s.evalPath(best.replica, best.path, req.Bits)
		a1 = s.commit(c, req.Bits)
		s.met.multiRejects.Inc()
		return []Assignment{a1}
	}
	s.met.multiAccepts.Inc()

	// Split sizes proportionally to bandwidth so subflows finish together.
	s1 := req.Bits * b1p / combined
	s2 := req.Bits - s1
	s.resize(a1.FlowID, s1)
	s.resize(a2.FlowID, s2)
	a1.Bits, a1.EstimatedBw = s1, b1p
	a2.Bits = s2
	return []Assignment{a1, a2}
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
		tol := s.opts.MaxPollSkew
		if tol == 0 {
			tol = DefaultMaxPollSkew
		}
		if tol >= 0 {
			if now > model+tol {
				s.met.pollDropsSkewFuture.Inc()
				return nil
			}
			if now < model-tol {
				s.met.pollDropsSkewPast.Inc()
				return nil
			}
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

// PathCost exposes the Eq. 2 cost of one candidate path given the current
// flow model, without registering anything. It is the FLOWCOST procedure
// and exists for tests, tooling and what-if analysis.
func (s *Server) PathCost(replica topology.NodeID, path topology.Path, bits float64) (cost, estimatedBw float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.evalPath(replica, path, bits)
	return c.cost, c.bw
}
