package flowserver

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/rpc"
	"github.com/mayflower-dfs/mayflower/internal/topology"
	"github.com/mayflower-dfs/mayflower/internal/wire"
)

// RPC method names served by the Flowserver. Per §5 of the paper, the
// replica-path function is exposed as an RPC service that is not tied to
// Mayflower: any distributed application can pass candidate sources and a
// transfer size and get back the chosen sources with per-source sizes.
const (
	MethodSelect      rpc.Method[SelectArgs, []AssignmentDTO]      = "fs.Select"
	MethodSelectWrite rpc.Method[SelectWriteArgs, []AssignmentDTO] = "fs.SelectWrite"
	MethodFinished    rpc.Method[FinishedArgs, struct{}]           = "fs.Finished"
)

// SelectArgs asks for a read assignment. Hosts are topology host names
// (the prototype's stand-in for the IP addresses the paper's RPC takes).
type SelectArgs struct {
	ClientHost   string   `json:"clientHost"`
	ReplicaHosts []string `json:"replicaHosts"`
	Bits         float64  `json:"bits"`
}

// AssignmentDTO is the wire form of one Assignment. A local assignment
// (Local set, no network flow) carries no EstimatedBw: the model's +Inf
// has no JSON encoding, and there is no flow for a share to describe.
type AssignmentDTO struct {
	FlowID      FlowID  `json:"flowId"`
	ReplicaHost string  `json:"replicaHost"`
	Bits        float64 `json:"bits"`
	EstimatedBw float64 `json:"estimatedBw,omitempty"`
	Local       bool    `json:"local,omitempty"`
	PathLen     int     `json:"pathLen"`
}

// SelectWriteArgs asks for a replication-pipeline schedule: one transfer
// of Bits bits from SourceHost to every target host, ordered by the
// Flowserver (see Service.SelectWritePipeline). In the returned
// assignments ReplicaHost names the *target* of each hop — the flow runs
// source→target, the reverse of a read assignment.
type SelectWriteArgs struct {
	SourceHost  string   `json:"sourceHost"`
	TargetHosts []string `json:"targetHosts"`
	Bits        float64  `json:"bits"`
}

// FinishedArgs reports a completed flow.
type FinishedArgs struct {
	FlowID FlowID `json:"flowId"`
}

// Hooks let the embedding controller react to assignments: the prototype
// installs OpenFlow rules for the selected path on assignment and removes
// them when the client reports completion.
type Hooks struct {
	// OnAssign runs after a non-local assignment is made.
	OnAssign func(a Assignment)
	// OnFinish runs when a flow is reported finished.
	OnFinish func(id FlowID)
}

// Service is the selection surface RegisterRPC serves; a flowctl.Shard
// implements it in every deployment.
type Service interface {
	// SelectReplicaAndPath picks the replica(s) and path(s) of a read.
	SelectReplicaAndPath(Request) ([]Assignment, error)
	// SelectWritePipeline orders a replication fan-out from source to
	// targets, cheapest hop first, one assignment per target.
	SelectWritePipeline(source topology.NodeID, targets []topology.NodeID, bits float64) ([]Assignment, error)
	// FlowFinished retires a completed (or aborted) flow.
	FlowFinished(FlowID)
}

// RegisterRPC exposes a Flowserver on a wire server, resolving host names
// against the topology.
func RegisterRPC(srv *wire.Server, fs Service, topo *topology.Topology, hooks Hooks) error {
	hostByName := make(map[string]topology.NodeID, topo.NumHosts())
	nameByHost := make(map[topology.NodeID]string, topo.NumHosts())
	for _, h := range topo.Hosts() {
		n := topo.Node(h)
		hostByName[n.Name] = h
		nameByHost[h] = n.Name
	}

	resolve := func(names []string, role string) ([]topology.NodeID, error) {
		hosts := make([]topology.NodeID, 0, len(names))
		for _, name := range names {
			h, ok := hostByName[name]
			if !ok {
				return nil, fmt.Errorf("flowserver: unknown %s host %q", role, name)
			}
			hosts = append(hosts, h)
		}
		return hosts, nil
	}
	// reply runs the assignment hook and converts to the wire form.
	reply := func(as []Assignment) []AssignmentDTO {
		out := make([]AssignmentDTO, 0, len(as))
		for _, asg := range as {
			dto := AssignmentDTO{
				FlowID:      asg.FlowID,
				ReplicaHost: nameByHost[asg.Replica],
				Bits:        asg.Bits,
				Local:       asg.Local(),
				PathLen:     len(asg.Path),
			}
			if !dto.Local {
				dto.EstimatedBw = asg.EstimatedBw
				if hooks.OnAssign != nil {
					hooks.OnAssign(asg)
				}
			}
			out = append(out, dto)
		}
		return out
	}

	return errors.Join(
		MethodSelect.Handle(srv, func(_ context.Context, a SelectArgs) ([]AssignmentDTO, error) {
			client, ok := hostByName[a.ClientHost]
			if !ok {
				return nil, fmt.Errorf("flowserver: unknown client host %q", a.ClientHost)
			}
			replicas, err := resolve(a.ReplicaHosts, "replica")
			if err != nil {
				return nil, err
			}
			as, err := fs.SelectReplicaAndPath(Request{Client: client, Replicas: replicas, Bits: a.Bits})
			if err != nil {
				return nil, err
			}
			return reply(as), nil
		}),
		MethodSelectWrite.Handle(srv, func(_ context.Context, a SelectWriteArgs) ([]AssignmentDTO, error) {
			source, ok := hostByName[a.SourceHost]
			if !ok {
				return nil, fmt.Errorf("flowserver: unknown source host %q", a.SourceHost)
			}
			targets, err := resolve(a.TargetHosts, "target")
			if err != nil {
				return nil, err
			}
			as, err := fs.SelectWritePipeline(source, targets, a.Bits)
			if err != nil {
				return nil, err
			}
			return reply(as), nil
		}),
		MethodFinished.Handle(srv, func(_ context.Context, a FinishedArgs) (struct{}, error) {
			fs.FlowFinished(a.FlowID)
			if hooks.OnFinish != nil {
				hooks.OnFinish(a.FlowID)
			}
			return struct{}{}, nil
		}),
	)
}

// RPCClient is the typed Flowserver stub over an rpc session (usually an
// *rpc.Peer). Connection lifecycle — dialing, pooling, reconnection —
// belongs to the session layer, not this stub.
type RPCClient struct {
	c rpc.Caller
}

// NewRPCClient wraps a control-plane session.
func NewRPCClient(c rpc.Caller) *RPCClient { return &RPCClient{c: c} }

// Select asks the Flowserver for a read assignment.
func (c *RPCClient) Select(ctx context.Context, args SelectArgs) ([]AssignmentDTO, error) {
	return MethodSelect.Call(ctx, c.c, args)
}

// SelectWrite asks the Flowserver to order a replication pipeline.
func (c *RPCClient) SelectWrite(ctx context.Context, args SelectWriteArgs) ([]AssignmentDTO, error) {
	return MethodSelectWrite.Call(ctx, c.c, args)
}

// Finished reports a completed flow.
func (c *RPCClient) Finished(ctx context.Context, id FlowID) error {
	_, err := MethodFinished.Call(ctx, c.c, FinishedArgs{FlowID: id})
	return err
}

// releaseTimeout bounds one Release: a slow controller may cost its
// callers (a read about to return, a primary holding a file's append
// order) this long, never more.
const releaseTimeout = 2 * time.Second

// Release reports every flow in ids finished. It is what a caller runs
// when its transfer is over, however it ended, so it takes no context:
// the caller's own may already be cancelled or expired, and a flow that
// is not released stays in the model forever (flows never expire). For
// the same reason one failed Finished does not stop the rest.
func (c *RPCClient) Release(ids ...FlowID) {
	ctx, cancel := context.WithTimeout(context.Background(), releaseTimeout)
	defer cancel()
	for _, id := range ids {
		_ = c.Finished(ctx, id) // best effort: nothing to do about a lost release but try the next
	}
}
