package flowctl

import (
	"fmt"
	"slices"

	"github.com/mayflower-dfs/mayflower/internal/flowserver"
	"github.com/mayflower-dfs/mayflower/internal/obs"
	"github.com/mayflower-dfs/mayflower/internal/topology"
)

// Options parameterize a Plane.
type Options struct {
	// Shards is the number of controller shards (>= 1).
	Shards int
	// MultiReplica / DisableImpactTerm / DisableFreeze / Now pass
	// through to every shard (see ShardConfig).
	MultiReplica      bool
	DisableImpactTerm bool
	DisableFreeze     bool
	Now               func() float64
	// Metrics, when set, publishes the plane's instrumentation (see
	// Metrics.Register).
	Metrics *obs.Registry
}

// Plane is the N-shard control plane: N shards over one topology plus
// the directory. The simulator and the testbed both run it. It wires
// the shards to each other with direct calls; the testbed serves each
// shard behind its own wire endpoint (see rpc.go) and swaps in RPC
// links with Shard.SetPeers.
//
// All coordination state is deterministic: selections are a pure
// function of the call sequence, digests refresh in shard-index order
// on every PollFrom, and flow ids are arithmetic in (shard, sequence).
type Plane struct {
	topo   *topology.Topology
	dir    *Directory
	shards []*Shard
	met    *Metrics
}

// planeLink wires shard-to-shard calls directly.
type planeLink struct {
	p      *Plane
	target int
}

func (l planeLink) CommitForeign(id flowserver.FlowID, links topology.Path, bits, capBw float64) (float64, error) {
	return l.p.shards[l.target].CommitForeign(id, links, bits, capBw)
}

func (l planeLink) FinishForeign(id flowserver.FlowID) error {
	l.p.shards[l.target].srv.FlowFinished(id)
	return nil
}

func (l planeLink) Digest() (*Digest, error) {
	s := l.p.shards[l.target]
	return s.BuildDigest(s.clock()), nil
}

// NewPlane builds the control plane. Shards must be in [1, pods].
func NewPlane(topo *topology.Topology, opts Options) (*Plane, error) {
	dir, err := NewDirectory(topo.Config().Pods, opts.Shards)
	if err != nil {
		return nil, err
	}
	p := &Plane{topo: topo, dir: dir, met: NewMetrics()}
	if opts.Metrics != nil {
		p.met.Register(opts.Metrics)
	}
	p.shards = make([]*Shard, opts.Shards)
	for k := range p.shards {
		s, err := NewShard(topo, ShardConfig{
			Index:             k,
			Shards:            opts.Shards,
			MultiReplica:      opts.MultiReplica,
			DisableImpactTerm: opts.DisableImpactTerm,
			DisableFreeze:     opts.DisableFreeze,
			Now:               opts.Now,
			Metrics:           p.met,
		})
		if err != nil {
			return nil, err
		}
		p.shards[k] = s
	}
	for k, s := range p.shards {
		peers := make([]ShardLink, opts.Shards)
		for g := range peers {
			if g != k {
				peers[g] = planeLink{p: p, target: g}
			}
		}
		s.SetPeers(peers)
	}
	return p, nil
}

// Directory exposes the plane's directory.
func (p *Plane) Directory() *Directory { return p.dir }

// Shard returns shard k (nil when out of range).
func (p *Plane) Shard(k int) *Shard {
	if k < 0 || k >= len(p.shards) {
		return nil
	}
	return p.shards[k]
}

// coordinatorFor resolves the shard coordinating selections for a
// requester host via the directory.
func (p *Plane) coordinatorFor(host topology.NodeID) (*Shard, error) {
	pod := p.topo.Node(host).Pod
	g, _, _, ok := p.dir.Lookup(pod)
	if !ok {
		return nil, fmt.Errorf("flowctl: no live shard owns pod %d", pod)
	}
	return p.shards[g], nil
}

// SelectReplicaAndPath routes the read selection to the shard owning
// the client's pod.
func (p *Plane) SelectReplicaAndPath(req flowserver.Request) ([]flowserver.Assignment, error) {
	s, err := p.coordinatorFor(req.Client)
	if err != nil {
		return nil, err
	}
	return s.SelectReplicaAndPath(req)
}

// SelectWritePipeline routes the replication fan-out to the shard
// owning the source's pod.
func (p *Plane) SelectWritePipeline(source topology.NodeID, targets []topology.NodeID, bits float64) ([]flowserver.Assignment, error) {
	s, err := p.coordinatorFor(source)
	if err != nil {
		return nil, err
	}
	return s.SelectWritePipeline(source, targets, bits)
}

// coordinatorOf recovers the coordinating shard from a flow id: shard k
// assigns ids ≡ k+1 (mod N).
func (p *Plane) coordinatorOf(id flowserver.FlowID) *Shard {
	n := flowserver.FlowID(len(p.shards))
	k := (id - 1) % n
	if k < 0 {
		k += n
	}
	return p.shards[k]
}

// Coordinated visits, in id order, the flows shard k holds and
// coordinates, with its estimate of each: not the remote halves of its
// peers' flows.
func (p *Plane) Coordinated(k int, visit func(id flowserver.FlowID, bw float64)) {
	p.shards[k].Server().Flows(func(id flowserver.FlowID, bw float64) {
		if p.coordinatorOf(id) == p.shards[k] {
			visit(id, bw)
		}
	})
}

// FlowFinished retires a flow everywhere it was committed; routing is
// id arithmetic.
func (p *Plane) FlowFinished(id flowserver.FlowID) {
	p.coordinatorOf(id).FlowFinished(id)
}

// PollFrom runs one stats cycle, in shard-index order. Every shard the
// directory holds alive ingests the batch and retires the flows it
// proves over; hooks (nil in the simulator) then learn of each retired
// flow once, though both shards holding a cross-shard flow retire it.
// Then every live shard pulls its peers' digests through its links, the
// cadence that bounds cross-pod staleness to one poll interval. A
// deployed shard polls the edge switches of its own pods; here every
// shard gets the full batch and its model's flow table picks out its
// own rows.
func (p *Plane) PollFrom(now float64, batch []flowserver.FlowStat, hooks flowserver.Hooks) {
	var retired []flowserver.FlowID
	for k, s := range p.shards {
		if p.dir.Alive(k) {
			over := s.Server().UpdateFlowStats(now, batch)
			flowserver.Hooks(nil).Retire(s, over...)
			retired = append(retired, over...)
		}
	}
	slices.Sort(retired)
	if retired = slices.Compact(retired); hooks != nil && len(retired) > 0 {
		hooks(retired, nil)
	}
	for k, s := range p.shards {
		if p.dir.Alive(k) {
			s.RefreshDigests()
		}
	}
}

// AuditDrift records, for every flow a live shard coordinates, that
// shard's bandwidth estimate against truth(id), the fabric's fair share,
// in shard and then id order. The remote half of a cross-shard flow is
// not sampled, so each flow counts once.
func (p *Plane) AuditDrift(a *obs.DriftAuditor, truth func(flowserver.FlowID) float64) {
	for k := range p.shards {
		if p.dir.Alive(k) {
			p.Coordinated(k, func(id flowserver.FlowID, bw float64) { a.Record(bw, truth(id)) })
		}
	}
}

// Counters snapshots the selection, poll and freeze counters, which
// every shard of the plane counts into one shared set.
func (p *Plane) Counters() flowserver.StatsCounters { return p.met.Flowserver.Counters() }

// NumFlows returns the number of registered flow entries across shards
// (a cross-shard flow counts once per shard holding a sub-path).
func (p *Plane) NumFlows() int {
	n := 0
	for _, s := range p.shards {
		n += s.Server().NumFlows()
	}
	return n
}

// Metrics exposes the plane's flowctl instrumentation.
func (p *Plane) Metrics() *Metrics { return p.met }
