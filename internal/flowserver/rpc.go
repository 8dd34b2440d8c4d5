package flowserver

import (
	"context"
	"errors"
	"fmt"
	"sync"
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
// Done carries the stub's queued releases (RPCClient.Release), retired
// before the selection runs; a Select with none is the bare frame.
type SelectArgs struct {
	ClientHost   string   `json:"clientHost"`
	ReplicaHosts []string `json:"replicaHosts"`
	Bits         float64  `json:"bits"`
	Done         []FlowID `json:"done,omitempty"`
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
// source→target, the reverse of a read assignment. Done is as in
// SelectArgs.
type SelectWriteArgs struct {
	SourceHost  string   `json:"sourceHost"`
	TargetHosts []string `json:"targetHosts"`
	Bits        float64  `json:"bits"`
	Done        []FlowID `json:"done,omitempty"`
}

// FinishedArgs reports completed flows.
type FinishedArgs struct {
	FlowIDs []FlowID `json:"flowIds"`
}

// Hooks let the embedding controller react to what a control call
// changed: the prototype installs OpenFlow rules for the selected paths
// and removes those of the flows the call retired. They run once per call
// that retired or assigned a flow, after its selection and before its
// reply, so a deployment can send the call's rule changes together;
// assigned includes local assignments (no network flow). Nil hooks do
// nothing.
type Hooks func(retired []FlowID, assigned []Assignment)

// Retire takes flows out of fs's model, then out of the deployment: the
// one way out, for a release riding a Select (nil hooks: the handler
// hands the releases on with its assignments), a lone fs.Finished or a
// poll proving flows over. A retired id is a no-op.
func (h Hooks) Retire(fs Service, ids ...FlowID) {
	for _, id := range ids {
		fs.FlowFinished(id)
	}
	h.apply(ids, nil)
}

func (h Hooks) apply(retired []FlowID, assigned []Assignment) {
	if h != nil && len(retired)+len(assigned) > 0 {
		h(retired, assigned)
	}
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
	resolve := func(names []string, role string) ([]topology.NodeID, error) {
		hosts := make([]topology.NodeID, 0, len(names))
		for _, name := range names {
			h, ok := topo.HostByName(name)
			if !ok {
				return nil, fmt.Errorf("flowserver: unknown %s host %q", role, name)
			}
			hosts = append(hosts, h)
		}
		return hosts, nil
	}
	// reply converts to the wire form.
	reply := func(as []Assignment) []AssignmentDTO {
		out := make([]AssignmentDTO, 0, len(as))
		for _, asg := range as {
			dto := AssignmentDTO{
				FlowID:      asg.FlowID,
				ReplicaHost: topo.Node(asg.Replica).Name,
				Bits:        asg.Bits,
				Local:       asg.Local(),
				PathLen:     len(asg.Path),
			}
			if !dto.Local {
				dto.EstimatedBw = asg.EstimatedBw
			}
			out = append(out, dto)
		}
		return out
	}

	// A selection retires its releases from the model first, so it sees
	// the model a lone release would leave; they reach the hooks with its
	// assignments.
	return errors.Join(
		MethodSelect.Handle(srv, func(_ context.Context, a SelectArgs) ([]AssignmentDTO, error) {
			Hooks(nil).Retire(fs, a.Done...)
			var as []Assignment
			defer func() { hooks.apply(a.Done, as) }()
			client, ok := topo.HostByName(a.ClientHost)
			if !ok {
				return nil, fmt.Errorf("flowserver: unknown client host %q", a.ClientHost)
			}
			replicas, err := resolve(a.ReplicaHosts, "replica")
			if err != nil {
				return nil, err
			}
			as, err = fs.SelectReplicaAndPath(Request{Client: client, Replicas: replicas, Bits: a.Bits})
			if err != nil {
				return nil, err
			}
			return reply(as), nil
		}),
		MethodSelectWrite.Handle(srv, func(_ context.Context, a SelectWriteArgs) ([]AssignmentDTO, error) {
			Hooks(nil).Retire(fs, a.Done...)
			var as []Assignment
			defer func() { hooks.apply(a.Done, as) }()
			source, ok := topo.HostByName(a.SourceHost)
			if !ok {
				return nil, fmt.Errorf("flowserver: unknown source host %q", a.SourceHost)
			}
			targets, err := resolve(a.TargetHosts, "target")
			if err != nil {
				return nil, err
			}
			as, err = fs.SelectWritePipeline(source, targets, a.Bits)
			if err != nil {
				return nil, err
			}
			return reply(as), nil
		}),
		MethodFinished.Handle(srv, func(_ context.Context, a FinishedArgs) (struct{}, error) {
			hooks.Retire(fs, a.FlowIDs...)
			return struct{}{}, nil
		}),
	)
}

const (
	// releaseLinger is how long a release waits for a selection to ride:
	// one emunet gate quantum, so a finished flow holds its emulated share
	// at most one quantum longer; a closed-loop reader selects sooner.
	releaseLinger = 2 * time.Millisecond
	// releaseTimeout bounds one flush against a slow controller.
	releaseTimeout = 2 * time.Second
)

// RPCClient is the typed Flowserver stub over an rpc session (usually an
// *rpc.Peer), which owns connection lifecycle. The stub owns the
// releases of the flows its calls admitted (see Release).
type RPCClient struct {
	c rpc.Caller

	mu     sync.Mutex
	done   []FlowID    // released, not yet sent; linger runs while non-empty
	spare  []FlowID    // swapped in by take, so a steady caller allocates nothing
	linger *time.Timer // nil until the first release
}

// NewRPCClient wraps a control-plane session.
func NewRPCClient(c rpc.Caller) *RPCClient { return &RPCClient{c: c} }

// Select asks the Flowserver for a read assignment; args.Done carries
// the queued releases.
func (c *RPCClient) Select(ctx context.Context, args SelectArgs) ([]AssignmentDTO, error) {
	args.Done = c.take()
	out, err := MethodSelect.Call(ctx, c.c, args)
	c.settle(args.Done, err)
	return out, err
}

// SelectWrite asks the Flowserver to order a replication pipeline;
// args.Done carries the queued releases.
func (c *RPCClient) SelectWrite(ctx context.Context, args SelectWriteArgs) ([]AssignmentDTO, error) {
	args.Done = c.take()
	out, err := MethodSelectWrite.Call(ctx, c.c, args)
	c.settle(args.Done, err)
	return out, err
}

// Finished reports flows finished in a round trip of its own.
func (c *RPCClient) Finished(ctx context.Context, ids ...FlowID) error {
	_, err := MethodFinished.Call(ctx, c.c, FinishedArgs{FlowIDs: ids})
	return err
}

// Release reports flows finished, however their transfer ended, without
// a round trip: the ids queue on the stub and ride its next Select or
// SelectWrite to the one shard that issued them, or leave alone (Flush)
// after releaseLinger. A release that never arrives is the controller's
// polls' to retire (Server.UpdateFlowStats).
func (c *RPCClient) Release(ids ...FlowID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case len(c.done) > 0 || len(ids) == 0:
	case c.linger == nil:
		c.linger = time.AfterFunc(releaseLinger, c.Flush)
	default:
		c.linger.Reset(releaseLinger)
	}
	c.done = append(c.done, ids...)
}

// Flush sends the queued releases now, all in one fs.Finished, best
// effort: the linger's send, and what a closing caller runs before its
// sessions go (flowctl.Router.Close).
func (c *RPCClient) Flush() {
	ids := c.take()
	if len(ids) == 0 {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), releaseTimeout)
	defer cancel()
	_ = c.Finished(ctx, ids...) // the polls retire a lost release
	c.settle(ids, nil)
}

// take hands the queue to a call leaving now.
func (c *RPCClient) take() []FlowID {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := c.done
	if len(ids) == 0 {
		return nil
	}
	c.done, c.spare = c.spare[:0], nil
	c.linger.Stop()
	return ids
}

// settle takes back what a call carried: the slice as the spare once
// answered, the ids into the queue again if the call failed (the
// controller may have retired them; retiring twice is harmless).
func (c *RPCClient) settle(ids []FlowID, err error) {
	if err != nil {
		c.Release(ids...)
		return
	}
	c.mu.Lock()
	if c.spare == nil && ids != nil {
		c.spare = ids[:0]
	}
	c.mu.Unlock()
}
