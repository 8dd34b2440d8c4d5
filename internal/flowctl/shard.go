package flowctl

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/flowserver"
	"github.com/mayflower-dfs/mayflower/internal/topology"
)

// ShardLink is a coordinator's handle on a remote shard: push the
// remote half of a flow it is committing, retire it, and pull the
// remote shard's utilization digest. The in-process plane implements it
// with direct calls; the deployed form with ctl.* RPCs over
// internal/rpc sessions.
type ShardLink interface {
	// CommitForeign registers links (all owned by the target shard) as
	// the remote sub-path of flow id, demand capped at capBw. It
	// returns the share the remote model granted.
	CommitForeign(id flowserver.FlowID, links topology.Path, bits, capBw float64) (float64, error)
	// FinishForeign retires the remote sub-path of flow id.
	FinishForeign(id flowserver.FlowID) error
	// Digest returns the shard's current utilization digest.
	Digest() (*Digest, error)
}

// Shard is the flow controller every deployment runs: a full
// flowserver.Server scoped (by commit discipline, not by construction)
// to the links of the pods this shard owns, plus the coordinator logic
// for selections whose requester lives in one of those pods. A one-shard
// plane is the degenerate case — it owns every pod, every path is
// wholly local, and no digest or peer is ever consulted.
//
// Locking: selMu serializes coordinator work (a selection must evaluate
// and commit atomically against this shard's model). What remote shards
// call — CommitForeign, the embedded Server's FlowFinished, and
// BuildDigest — deliberately does NOT take selMu: shard A's coordinator
// may be committing into shard B while B's coordinator commits into A,
// and the embedded Server's own lock already makes each call atomic.
type Shard struct {
	idx      int
	nshards  int
	topo     *topology.Topology
	srv      *flowserver.Server
	capacity []float64
	linkPod  []int
	now      func() float64
	met      *Metrics
	multi    bool // §4.3 split reads; one-shard only

	// ownMu guards the directory-driven ownership view.
	ownMu sync.RWMutex
	owner []int // pod → shard
	epoch int64

	selMu sync.Mutex
	peers []ShardLink // by shard index; nil for self and until SetPeers
	// remote[g] is the latest digest pulled from shard g; view is the
	// dense merge used to score remote links.
	remote []*Digest
	view   []LinkLoad
	seq    int64
	// coordinated maps flows this shard coordinated to the remote
	// shards holding their other half, for fan-out on Finished.
	coordinated map[flowserver.FlowID][]int
	// cands is the candidate list of the selection in progress; owned
	// backs the Own of candidates this shard does not wholly own.
	cands []flowserver.Candidate
	owned []topology.LinkID
}

// ShardConfig parameterizes one shard.
type ShardConfig struct {
	// Index is this shard's slot in [0, Shards).
	Index int
	// Shards is the total shard count (the flow-id stride).
	Shards int
	// MultiReplica enables §4.3 split reads. One-shard only: the split's
	// trial-commit/rollback would have to snapshot two shards atomically,
	// so NewShard rejects it with Shards > 1.
	MultiReplica bool
	// DisableImpactTerm / DisableFreeze / Now pass through to the
	// embedded flowserver (see flowserver.Options).
	DisableImpactTerm bool
	DisableFreeze     bool
	Now               func() float64
	// Metrics receives the shard's instrumentation; a fresh unregistered
	// set when nil. Shards of one process share a set.
	Metrics *Metrics
}

// initialOwners is the layout every directory and shard boots with: pod
// p belongs to shard p mod shards (under epoch 1). Ownership only moves
// from there through directory failovers (SetOwners).
func initialOwners(pods, shards int) []int {
	owner := make([]int, pods)
	for p := range owner {
		owner[p] = p % shards
	}
	return owner
}

// NewShard creates one shard over the full topology. The embedded
// server's flow-id sequence is Index+1, Index+1+Shards, … so ids stay
// globally unique across shards without coordination.
func NewShard(topo *topology.Topology, cfg ShardConfig) (*Shard, error) {
	if cfg.Shards < 1 || cfg.Index < 0 || cfg.Index >= cfg.Shards {
		return nil, fmt.Errorf("flowctl: shard index %d out of range for %d shards", cfg.Index, cfg.Shards)
	}
	if pods := topo.Config().Pods; pods < cfg.Shards {
		return nil, fmt.Errorf("flowctl: %d shards for %d pods; at most one shard per pod", cfg.Shards, pods)
	}
	if cfg.MultiReplica && cfg.Shards > 1 {
		return nil, fmt.Errorf("flowctl: multi-replica reads require a single shard")
	}
	met := cfg.Metrics
	if met == nil {
		met = NewMetrics()
	}
	capacity := make([]float64, topo.NumLinks())
	for _, l := range topo.Links() {
		capacity[l.ID] = l.Capacity
	}
	s := &Shard{
		idx:      cfg.Index,
		nshards:  cfg.Shards,
		topo:     topo,
		capacity: capacity,
		linkPod:  LinkPods(topo),
		now:      cfg.Now,
		met:      met,
		multi:    cfg.MultiReplica,
		owner:    initialOwners(topo.Config().Pods, cfg.Shards),
		epoch:    1,
		peers:    make([]ShardLink, cfg.Shards),
		remote:   make([]*Digest, cfg.Shards),
		view:     make([]LinkLoad, topo.NumLinks()),

		coordinated: make(map[flowserver.FlowID][]int),
	}
	s.srv = flowserver.New(topo, flowserver.Options{
		DisableImpactTerm: cfg.DisableImpactTerm,
		DisableFreeze:     cfg.DisableFreeze,
		Now:               cfg.Now,
		Metrics:           met.Flowserver,
		IDBase:            int64(cfg.Index + 1),
		IDStride:          int64(cfg.Shards),
	})
	met.setEpoch(s.epoch)
	return s, nil
}

// clock reads the injected model clock (0 without one).
func (s *Shard) clock() float64 {
	if s.now != nil {
		return s.now()
	}
	return 0
}

// Index returns this shard's slot.
func (s *Shard) Index() int { return s.idx }

// Server exposes the embedded flowserver (stats ingestion, counters).
func (s *Shard) Server() *flowserver.Server { return s.srv }

// SetPeers installs the links to the other shards. peers[s.idx] is
// ignored.
func (s *Shard) SetPeers(peers []ShardLink) {
	s.selMu.Lock()
	defer s.selMu.Unlock()
	s.peers = append([]ShardLink(nil), peers...)
}

// SetOwners installs a new pod→shard map under its epoch (a directory
// failover). Stale epochs are ignored.
func (s *Shard) SetOwners(owner []int, epoch int64) {
	s.ownMu.Lock()
	defer s.ownMu.Unlock()
	if epoch < s.epoch {
		return
	}
	s.owner = append([]int(nil), owner...)
	s.epoch = epoch
	s.met.setEpoch(epoch)
}

// addCandidates appends one candidate per path to the selection in
// progress, endpoint naming the replica (reads) or target (writes) the
// path serves. Own is the path itself when this shard owns every link —
// always, on a one-shard plane — and else the links it owns. Cap is the
// share the merged digest view estimates for the links it does not own:
// exact scoring stops at the ownership boundary, so the remote estimate
// carries no impact term — the completion-time increase of flows another
// shard models is exactly what the digest compresses away, the
// bounded-staleness approximation the shard-count sweep quantifies.
// Caller must hold selMu.
func (s *Shard) addCandidates(endpoint topology.NodeID, paths []topology.Path) {
	s.ownMu.RLock()
	defer s.ownMu.RUnlock()
	for _, path := range paths {
		start, capBw := len(s.owned), math.Inf(1)
		for _, lid := range path {
			if s.owner[s.linkPod[lid]] == s.idx {
				s.owned = append(s.owned, lid)
			} else if est := ShareEstimate(s.capacity[lid], s.view[lid]); est < capBw {
				capBw = est
			}
		}
		own := s.owned[start:]
		if len(own) == len(path) {
			own, s.owned = path, s.owned[:start]
		}
		s.cands = append(s.cands, flowserver.Candidate{Endpoint: endpoint, Path: path, Own: own, Cap: capBw})
	}
}

// selectFlow runs the embedded server's Select over the candidate list
// and pushes the winner's remote sub-path, if any, to the shards owning
// it. Caller must hold selMu.
func (s *Shard) selectFlow(bits float64) (flowserver.Assignment, error) {
	a, won, err := s.srv.Select(s.cands, bits)
	if err != nil {
		return a, err
	}
	c := s.cands[won]
	if len(c.Own) == len(c.Path) {
		s.met.PodLocal.Inc()
		return a, nil
	}
	s.met.CrossShard.Inc()
	s.commitRemote(a.FlowID, c, bits, a.EstimatedBw)
	return a, nil
}

// commitRemote registers the links of c outside its Own with their
// owning shards under the coordinator's flow id, capped at the share
// this shard granted. A remote commit failure (peer dead or
// unreachable) is counted and tolerated: the flow still runs, the
// remote model just cannot see it until its counters do — the same
// blindness background traffic already inflicts. Caller must hold
// selMu.
func (s *Shard) commitRemote(id flowserver.FlowID, c flowserver.Candidate, bits, bw float64) {
	remoteLinks := make(map[int]topology.Path)
	var remoteOrder []int
	own := c.Own
	s.ownMu.RLock()
	for _, lid := range c.Path {
		if len(own) > 0 && own[0] == lid {
			own = own[1:]
			continue
		}
		g := s.owner[s.linkPod[lid]]
		if _, ok := remoteLinks[g]; !ok {
			remoteOrder = append(remoteOrder, g)
		}
		remoteLinks[g] = append(remoteLinks[g], lid)
	}
	s.ownMu.RUnlock()
	var committed []int
	for _, g := range remoteOrder {
		if d := s.remote[g]; d != nil && s.now != nil {
			s.met.DigestAge.Observe(s.now() - d.Time)
		}
		peer := s.peers[g]
		if peer == nil {
			s.met.RemoteCommitErrors.Inc()
			continue
		}
		if _, err := peer.CommitForeign(id, remoteLinks[g], bits, bw); err != nil {
			s.met.RemoteCommitErrors.Inc()
			continue
		}
		s.met.RemoteCommits.Inc()
		committed = append(committed, g)
	}
	if len(committed) > 0 {
		s.coordinated[id] = committed
	}
}

// CommitForeign models links, a peer's sub-path of flow id, only if this
// shard owns every one (under one hold of ownMu), so a coordinator with a
// stale owner map gets an error; both ShardLinks land here.
func (s *Shard) CommitForeign(id flowserver.FlowID, links topology.Path, bits, capBw float64) (float64, error) {
	s.ownMu.RLock()
	defer s.ownMu.RUnlock()
	for _, lid := range links {
		if g := s.owner[s.linkPod[lid]]; g != s.idx {
			return 0, fmt.Errorf("flowctl: commit of flow %d: link %d belongs to shard %d, not %d", id, lid, g, s.idx)
		}
	}
	return s.srv.CommitForeign(id, links, bits, capBw), nil
}

// localAssignment is the zero-network-cost answer for a replica or
// target co-located with the requester: an id for the caller's
// bookkeeping, no model entry.
func (s *Shard) localAssignment(host topology.NodeID, bits float64) flowserver.Assignment {
	return flowserver.Assignment{
		FlowID:      s.srv.AllocFlowID(),
		Replica:     host,
		Bits:        bits,
		EstimatedBw: math.Inf(1),
	}
}

// observe counts one selection request and its latency, the one place
// flowserver.selections, write_selections and select_seconds move.
func (s *Shard) observe(start time.Time, write bool) {
	m := s.met.Flowserver
	m.Selections.Inc()
	if write {
		m.WriteSelections.Inc()
	}
	m.SelectSeconds.Observe(time.Since(start).Seconds())
}

// SelectReplicaAndPath is joint replica and path selection coordinated
// by this shard (which must own the client's pod): every shortest path
// from every replica to the client is a candidate of one Select. With
// MultiReplica a read of two or more replicas may split (§4.3).
func (s *Shard) SelectReplicaAndPath(req flowserver.Request) ([]flowserver.Assignment, error) {
	if len(req.Replicas) == 0 {
		return nil, flowserver.ErrNoReplicas
	}
	if req.Bits < 0 {
		return nil, fmt.Errorf("flowctl: negative read size %g", req.Bits)
	}
	defer s.observe(time.Now(), false)
	s.selMu.Lock()
	defer s.selMu.Unlock()

	// A co-located replica costs nothing; every policy prefers it.
	for _, r := range req.Replicas {
		if r == req.Client {
			return []flowserver.Assignment{s.localAssignment(r, req.Bits)}, nil
		}
	}
	s.cands, s.owned = s.cands[:0], s.owned[:0]
	for _, rep := range req.Replicas {
		s.addCandidates(rep, s.topo.ShortestPaths(rep, req.Client))
	}
	if s.multi && len(req.Replicas) > 1 {
		// NewShard allows MultiReplica on one shard only, so every
		// candidate is wholly owned and the split rolls back one model.
		as, err := s.srv.SelectSplit(s.cands, req.Bits)
		s.met.PodLocal.Add(int64(len(as)))
		return as, err
	}
	a, err := s.selectFlow(req.Bits)
	if err != nil {
		return nil, fmt.Errorf("flowctl: no path from any replica to client %d: %w", req.Client, err)
	}
	return []flowserver.Assignment{a}, nil
}

// SelectWritePipeline schedules a replication fan-out: one flow of the
// given size from source to each target, ordered cheapest-first. Each
// round is one Select over every shortest path from the source to every
// remaining target, so later hops see the bandwidth the earlier hops
// already claimed. This extends the read-side co-design of Pseudocode 1
// to replication traffic (§3.3's "collaboratively with the Flowserver"
// direction): the primary learns both which replica to stream to first
// and which path each hop takes.
//
// Assignments are returned in the chosen pipeline order. The caller must
// report each non-local flow's completion with FlowFinished. A target
// co-located with the source yields a local assignment (no flow) before
// any hop is scored.
func (s *Shard) SelectWritePipeline(source topology.NodeID, targets []topology.NodeID, bits float64) ([]flowserver.Assignment, error) {
	if len(targets) == 0 {
		return nil, flowserver.ErrNoReplicas
	}
	if bits < 0 {
		return nil, fmt.Errorf("flowctl: negative write size %g", bits)
	}
	defer s.observe(time.Now(), true)
	s.selMu.Lock()
	defer s.selMu.Unlock()

	remaining := append([]topology.NodeID(nil), targets...)
	out := make([]flowserver.Assignment, 0, len(targets))
	for len(remaining) > 0 {
		i := slices.Index(remaining, source)
		if i >= 0 {
			out = append(out, s.localAssignment(source, bits))
		} else {
			s.cands, s.owned = s.cands[:0], s.owned[:0]
			for _, tgt := range remaining {
				s.addCandidates(tgt, s.topo.ShortestPaths(source, tgt))
			}
			a, err := s.selectFlow(bits)
			if err != nil {
				return nil, fmt.Errorf("flowctl: no path from source %d to targets %v: %w", source, remaining, err)
			}
			out = append(out, a)
			i = slices.Index(remaining, a.Replica)
		}
		remaining = slices.Delete(remaining, i, i+1)
	}
	return out, nil
}

// FlowFinished retires a flow this shard coordinated: its own sub-path
// and, via the peer links, any remote halves.
func (s *Shard) FlowFinished(id flowserver.FlowID) {
	s.srv.FlowFinished(id)
	s.selMu.Lock()
	parts := s.coordinated[id]
	delete(s.coordinated, id)
	peers := s.peers
	s.selMu.Unlock()
	for _, g := range parts {
		if peers[g] != nil {
			_ = peers[g].FinishForeign(id) // best effort; counters reconcile
		}
	}
}

// BuildDigest snapshots the modeled load of every link this shard owns.
// It must not take selMu — see the type comment.
func (s *Shard) BuildDigest(now float64) *Digest {
	s.ownMu.Lock()
	s.seq++
	d := &Digest{Shard: s.idx, Seq: s.seq, Time: now}
	owner, idx := s.owner, s.idx
	s.ownMu.Unlock()
	s.srv.LinkLoads(func(link, flows int, sumBw float64) {
		if owner[s.linkPod[link]] != idx {
			return
		}
		d.Links = append(d.Links, int32(link))
		d.Loads = append(d.Loads, LinkLoad{Flows: int32(flows), SumBw: sumBw})
	})
	return d
}

// RefreshDigests pulls every live peer's digest and rebuilds the dense
// scoring view. A failed pull keeps the previous digest: the view just
// ages.
func (s *Shard) RefreshDigests() {
	if s.nshards == 1 {
		return // a lone shard has nobody to gossip with
	}
	s.selMu.Lock()
	peers := append([]ShardLink(nil), s.peers...)
	s.selMu.Unlock()
	ds := make([]*Digest, len(peers))
	for g, p := range peers {
		if g == s.idx || p == nil {
			continue
		}
		if d, err := p.Digest(); err == nil {
			ds[g] = d
		}
	}
	s.selMu.Lock()
	defer s.selMu.Unlock()
	for g, d := range ds {
		if d != nil && (s.remote[g] == nil || d.Seq >= s.remote[g].Seq) {
			s.remote[g] = d
		}
	}
	live := make([]*Digest, 0, len(s.remote))
	for g, d := range s.remote {
		if g != s.idx && d != nil {
			live = append(live, d)
		}
	}
	s.view = MergeDigests(s.view, s.topo.NumLinks(), live...)
	s.met.DigestRefreshes.Inc()
}

// DigestAge returns the age (model seconds) of the digest held for
// shard g, or ok=false when none has been installed.
func (s *Shard) DigestAge(g int, now float64) (float64, bool) {
	s.selMu.Lock()
	defer s.selMu.Unlock()
	if g < 0 || g >= len(s.remote) || s.remote[g] == nil {
		return 0, false
	}
	return now - s.remote[g].Time, true
}
