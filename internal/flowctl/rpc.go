package flowctl

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"github.com/mayflower-dfs/mayflower/internal/flowserver"
	"github.com/mayflower-dfs/mayflower/internal/rpc"
	"github.com/mayflower-dfs/mayflower/internal/topology"
	"github.com/mayflower-dfs/mayflower/internal/wire"
)

// Beside the fs.* selection surface a shard endpoint serves two more
// wire services. The directory (fd.*), hosted by shard 0, is the tiny
// map clients, dataservers and shards resolve pod ownership against;
// shards renew epoch-numbered leases on it and callers cache its
// answers keyed by epoch (see Router). The shard-to-shard channel
// (ctl.*) carries foreign commits, finishes and digest pulls between
// shard processes — the RPC form of ShardLink.
const (
	MethodLookup    rpc.Method[LookupArgs, LookupReply]       = "fd.Lookup"
	MethodHeartbeat rpc.Method[HeartbeatArgs, HeartbeatReply] = "fd.Heartbeat"

	MethodCommitForeign rpc.Method[CommitForeignArgs, CommitForeignReply] = "ctl.Commit"
	MethodFinishForeign rpc.Method[FinishForeignArgs, struct{}]           = "ctl.Finish"
	MethodPullDigest    rpc.Method[struct{}, *Digest]                     = "ctl.Digest"
)

// LookupArgs asks which shard owns a pod.
type LookupArgs struct {
	Pod int `json:"pod"`
}

// LookupReply names the owning shard, the address it last registered,
// and the directory epoch the answer is valid under. Callers caching
// the route must drop it when a later Lookup returns a higher epoch —
// ownership only changes with an epoch bump.
type LookupReply struct {
	Shard int    `json:"shard"`
	Addr  string `json:"addr"`
	Epoch int64  `json:"epoch"`
}

// HeartbeatArgs renews one shard's lease and (re)registers its
// selection RPC address.
type HeartbeatArgs struct {
	Shard      int     `json:"shard"`
	Addr       string  `json:"addr"`
	TTLSeconds float64 `json:"ttlSeconds"`
}

// HeartbeatReply returns the directory's pod→shard map and the epoch it
// is valid under, read together, so a reviving shard learns it was
// failed over while away and which pods it owns now.
type HeartbeatReply struct {
	Epoch  int64 `json:"epoch"`
	Owners []int `json:"owners"`
}

// RegisterDirectoryRPC serves a Directory. Lookups lapse overdue leases
// first, so a silent shard is failed over by the next resolution
// touching the directory rather than by a background sweeper.
func RegisterDirectoryRPC(srv *wire.Server, d *Directory, now func() float64) error {
	return errors.Join(
		MethodLookup.Handle(srv, func(_ context.Context, a LookupArgs) (LookupReply, error) {
			d.ExpireBefore(now())
			shard, addr, epoch, ok := d.Lookup(a.Pod)
			if !ok {
				return LookupReply{}, fmt.Errorf("flowctl: no live shard owns pod %d", a.Pod)
			}
			return LookupReply{Shard: shard, Addr: addr, Epoch: epoch}, nil
		}),
		MethodHeartbeat.Handle(srv, func(_ context.Context, a HeartbeatArgs) (HeartbeatReply, error) {
			d.ExpireBefore(now())
			if _, err := d.Heartbeat(a.Shard, a.Addr, now(), a.TTLSeconds); err != nil {
				return HeartbeatReply{}, err
			}
			owners, epoch := d.Owners()
			return HeartbeatReply{Epoch: epoch, Owners: owners}, nil
		}),
	)
}

// DirectoryClient is the typed directory stub over an rpc session.
type DirectoryClient struct {
	c rpc.Caller
}

// NewDirectoryClient wraps a control-plane session to the directory.
func NewDirectoryClient(c rpc.Caller) *DirectoryClient { return &DirectoryClient{c: c} }

// Lookup resolves the shard owning a pod.
func (c *DirectoryClient) Lookup(ctx context.Context, pod int) (LookupReply, error) {
	return MethodLookup.Call(ctx, c.c, LookupArgs{Pod: pod})
}

// Heartbeat renews a shard's lease and returns the directory's
// ownership map.
func (c *DirectoryClient) Heartbeat(ctx context.Context, shard int, addr string, ttlSeconds float64) (HeartbeatReply, error) {
	return MethodHeartbeat.Call(ctx, c.c, HeartbeatArgs{Shard: shard, Addr: addr, TTLSeconds: ttlSeconds})
}

// CommitForeignArgs registers the receiving shard's sub-path of a flow
// the calling shard coordinated.
type CommitForeignArgs struct {
	FlowID flowserver.FlowID `json:"flowId"`
	Links  []int32           `json:"links"`
	Bits   float64           `json:"bits"`
	CapBw  float64           `json:"capBw"`
}

// CommitForeignReply returns the share the receiving model granted.
type CommitForeignReply struct {
	EstimatedBw float64 `json:"estimatedBw"`
}

// FinishForeignArgs retires a foreign sub-path.
type FinishForeignArgs struct {
	FlowID flowserver.FlowID `json:"flowId"`
}

func wirePath(links topology.Path) []int32 {
	out := make([]int32, len(links))
	for i, l := range links {
		out[i] = int32(l)
	}
	return out
}

// foreignPath validates a ctl.Commit before it reaches the model, whose
// link table an unknown link would index past and whose state a
// repeated link or a negative size or cap would corrupt, and returns its
// links.
func foreignPath(a CommitForeignArgs, numLinks int) (topology.Path, error) {
	if !(a.Bits >= 0) || !(a.CapBw >= 0) {
		return nil, fmt.Errorf("flowctl: commit of flow %d: negative size %g or cap %g", a.FlowID, a.Bits, a.CapBw)
	}
	out := make(topology.Path, len(a.Links))
	for i, l := range a.Links {
		out[i] = topology.LinkID(l)
		if l < 0 || int(l) >= numLinks || slices.Contains(out[:i], out[i]) {
			return nil, fmt.Errorf("flowctl: commit of flow %d: bad link %d in %v", a.FlowID, l, a.Links)
		}
	}
	return out, nil
}

// RegisterShardRPC serves one shard on a wire server: the fs.*
// selection surface for the pods it owns (flowserver.RegisterRPC, with
// the deployment's assignment hooks) and the ctl.* channel its peers
// push foreign commits and finishes to and pull digests from.
func RegisterShardRPC(srv *wire.Server, s *Shard, hooks flowserver.Hooks) error {
	if err := flowserver.RegisterRPC(srv, s, s.topo, hooks); err != nil {
		return err
	}
	return errors.Join(
		MethodCommitForeign.Handle(srv, func(_ context.Context, a CommitForeignArgs) (CommitForeignReply, error) {
			links, err := foreignPath(a, s.topo.NumLinks())
			if err != nil {
				return CommitForeignReply{}, err
			}
			bw, err := s.CommitForeign(a.FlowID, links, a.Bits, a.CapBw)
			return CommitForeignReply{EstimatedBw: bw}, err
		}),
		MethodFinishForeign.Handle(srv, func(_ context.Context, a FinishForeignArgs) (struct{}, error) {
			s.srv.FlowFinished(a.FlowID)
			return struct{}{}, nil
		}),
		MethodPullDigest.Handle(srv, func(context.Context, struct{}) (*Digest, error) {
			return s.BuildDigest(s.clock()), nil
		}),
	)
}

// RPCShardLink is the deployed ShardLink: ctl.* calls over a pooled
// control-plane session to a peer shard.
type RPCShardLink struct {
	c rpc.Caller
	// ctx supplies each peer call's context (see NewRPCShardLink).
	ctx func() (context.Context, context.CancelFunc)
}

// NewRPCShardLink wraps a session to a peer shard. mkCtx supplies the
// per-call context (deadline policy belongs to the deployment); nil
// means context.Background.
func NewRPCShardLink(c rpc.Caller, mkCtx func() (context.Context, context.CancelFunc)) *RPCShardLink {
	if mkCtx == nil {
		mkCtx = func() (context.Context, context.CancelFunc) {
			return context.Background(), func() {}
		}
	}
	return &RPCShardLink{c: c, ctx: mkCtx}
}

// CommitForeign implements ShardLink.
func (l *RPCShardLink) CommitForeign(id flowserver.FlowID, links topology.Path, bits, capBw float64) (float64, error) {
	ctx, cancel := l.ctx()
	defer cancel()
	out, err := MethodCommitForeign.Call(ctx, l.c, CommitForeignArgs{
		FlowID: id, Links: wirePath(links), Bits: bits, CapBw: capBw,
	})
	return out.EstimatedBw, err
}

// FinishForeign implements ShardLink.
func (l *RPCShardLink) FinishForeign(id flowserver.FlowID) error {
	ctx, cancel := l.ctx()
	defer cancel()
	_, err := MethodFinishForeign.Call(ctx, l.c, FinishForeignArgs{FlowID: id})
	return err
}

// Digest implements ShardLink.
func (l *RPCShardLink) Digest() (*Digest, error) {
	ctx, cancel := l.ctx()
	defer cancel()
	return MethodPullDigest.Call(ctx, l.c, struct{}{})
}
