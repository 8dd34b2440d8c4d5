package flowctl

import (
	"context"
	"encoding/json"
	"fmt"

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
	MethodLookup    = "fd.Lookup"
	MethodHeartbeat = "fd.Heartbeat"

	MethodCommitForeign = "ctl.Commit"
	MethodFinishForeign = "ctl.Finish"
	MethodPullDigest    = "ctl.Digest"
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

// HeartbeatReply returns the current directory epoch so a reviving
// shard learns it was failed over while away.
type HeartbeatReply struct {
	Epoch int64 `json:"epoch"`
}

// RegisterDirectoryRPC serves a Directory. Lookups lapse overdue leases
// first, so a silent shard is failed over by the next resolution
// touching the directory rather than by a background sweeper.
func RegisterDirectoryRPC(srv *wire.Server, d *Directory, now func() float64) error {
	lookup := func(_ context.Context, params json.RawMessage) (any, error) {
		var a LookupArgs
		if err := json.Unmarshal(params, &a); err != nil {
			return nil, err
		}
		d.ExpireBefore(now())
		shard, addr, epoch, ok := d.Lookup(a.Pod)
		if !ok {
			return nil, fmt.Errorf("flowctl: no live shard owns pod %d", a.Pod)
		}
		return LookupReply{Shard: shard, Addr: addr, Epoch: epoch}, nil
	}
	heartbeat := func(_ context.Context, params json.RawMessage) (any, error) {
		var a HeartbeatArgs
		if err := json.Unmarshal(params, &a); err != nil {
			return nil, err
		}
		d.ExpireBefore(now())
		epoch, err := d.Heartbeat(a.Shard, a.Addr, now(), a.TTLSeconds)
		if err != nil {
			return nil, err
		}
		return HeartbeatReply{Epoch: epoch}, nil
	}
	if err := srv.Register(MethodLookup, lookup); err != nil {
		return err
	}
	return srv.Register(MethodHeartbeat, heartbeat)
}

// DirectoryClient is the typed directory stub over an rpc session.
type DirectoryClient struct {
	c rpc.Caller
}

// NewDirectoryClient wraps a control-plane session to the directory.
func NewDirectoryClient(c rpc.Caller) *DirectoryClient { return &DirectoryClient{c: c} }

// Lookup resolves the shard owning a pod.
func (c *DirectoryClient) Lookup(ctx context.Context, pod int) (LookupReply, error) {
	var out LookupReply
	err := c.c.Call(ctx, MethodLookup, LookupArgs{Pod: pod}, &out)
	return out, err
}

// Heartbeat renews a shard's lease.
func (c *DirectoryClient) Heartbeat(ctx context.Context, shard int, addr string, ttlSeconds float64) (int64, error) {
	var out HeartbeatReply
	err := c.c.Call(ctx, MethodHeartbeat, HeartbeatArgs{Shard: shard, Addr: addr, TTLSeconds: ttlSeconds}, &out)
	return out.Epoch, err
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

func pathFromWire(links []int32) topology.Path {
	out := make(topology.Path, len(links))
	for i, l := range links {
		out[i] = topology.LinkID(l)
	}
	return out
}

// RegisterShardRPC serves one shard on a wire server: the fs.*
// selection surface for the pods it owns (flowserver.RegisterRPC, with
// the deployment's assignment hooks) and the ctl.* channel its peers
// push foreign commits and finishes to and pull digests from.
func RegisterShardRPC(srv *wire.Server, s *Shard, hooks flowserver.Hooks) error {
	if err := flowserver.RegisterRPC(srv, s, s.topo, hooks); err != nil {
		return err
	}
	commit := func(_ context.Context, params json.RawMessage) (any, error) {
		var a CommitForeignArgs
		if err := json.Unmarshal(params, &a); err != nil {
			return nil, err
		}
		bw := s.srv.CommitForeign(a.FlowID, pathFromWire(a.Links), a.Bits, a.CapBw)
		return CommitForeignReply{EstimatedBw: bw}, nil
	}
	finish := func(_ context.Context, params json.RawMessage) (any, error) {
		var a FinishForeignArgs
		if err := json.Unmarshal(params, &a); err != nil {
			return nil, err
		}
		s.srv.FlowFinished(a.FlowID)
		return struct{}{}, nil
	}
	digest := func(_ context.Context, _ json.RawMessage) (any, error) {
		return s.BuildDigest(s.clock()), nil
	}
	if err := srv.Register(MethodCommitForeign, commit); err != nil {
		return err
	}
	if err := srv.Register(MethodFinishForeign, finish); err != nil {
		return err
	}
	return srv.Register(MethodPullDigest, digest)
}

// RPCShardLink is the deployed ShardLink: ctl.* calls over a pooled
// control-plane session to a peer shard.
type RPCShardLink struct {
	c rpc.Caller
	// Timeout bounds each peer call; rpc.Caller's default when zero.
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
	var out CommitForeignReply
	err := l.c.Call(ctx, MethodCommitForeign, CommitForeignArgs{
		FlowID: id, Links: wirePath(links), Bits: bits, CapBw: capBw,
	}, &out)
	return out.EstimatedBw, err
}

// FinishForeign implements ShardLink.
func (l *RPCShardLink) FinishForeign(id flowserver.FlowID) error {
	ctx, cancel := l.ctx()
	defer cancel()
	var out struct{}
	return l.c.Call(ctx, MethodFinishForeign, FinishForeignArgs{FlowID: id}, &out)
}

// Digest implements ShardLink.
func (l *RPCShardLink) Digest() (*Digest, error) {
	ctx, cancel := l.ctx()
	defer cancel()
	var out Digest
	if err := l.c.Call(ctx, MethodPullDigest, struct{}{}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
