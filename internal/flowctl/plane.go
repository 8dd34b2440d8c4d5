package flowctl

import (
	"fmt"

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

// Plane is the in-process control plane: N shards over one topology,
// wired to each other with direct calls, plus the directory. It is what
// the experiment driver runs selections against; the deployed form is
// the same shards behind RPC endpoints (see rpc.go).
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
	return l.p.shards[l.target].srv.CommitForeign(id, links, bits, capBw), nil
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

// SelectPath routes the path-only selection to the shard owning the
// client's pod.
func (p *Plane) SelectPath(client, replica topology.NodeID, bits float64) (flowserver.Assignment, error) {
	s, err := p.coordinatorFor(client)
	if err != nil {
		return flowserver.Assignment{}, err
	}
	return s.SelectPath(client, replica, bits)
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

// FlowFinished retires a flow everywhere it was committed; routing is
// id arithmetic.
func (p *Plane) FlowFinished(id flowserver.FlowID) {
	p.coordinatorOf(id).FlowFinished(id)
}

// EstimatedBW returns the coordinator's bandwidth estimate for a flow.
func (p *Plane) EstimatedBW(id flowserver.FlowID) (float64, bool) {
	return p.coordinatorOf(id).Server().EstimatedBW(id)
}

// PollFrom ingests one stats cycle into every shard, retiring the
// flows it proves over, and then refreshes the cross-shard digests, in
// shard-index order — each shard in a real deployment polls the edge
// switches of its own pods and gossips on the same tick; the in-process
// plane hands every shard the full batch and lets the model's flow
// tables pick out their own rows. There are no switches or fabric to
// tell of a retirement.
func (p *Plane) PollFrom(now float64, src flowserver.StatsSource) {
	batch := src.FlowStats()
	for _, s := range p.shards {
		flowserver.Hooks{}.Retire(s, s.Server().UpdateFlowStats(now, batch)...)
	}
	if len(p.shards) == 1 {
		return // a lone shard has nobody to gossip with
	}
	ds := make([]*Digest, len(p.shards))
	for k, s := range p.shards {
		ds[k] = s.BuildDigest(now)
	}
	for _, s := range p.shards {
		s.InstallDigests(ds)
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
