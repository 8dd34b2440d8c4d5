package paxos

import (
	"context"
	"errors"
	"fmt"

	"github.com/mayflower-dfs/mayflower/internal/rpc"
	"github.com/mayflower-dfs/mayflower/internal/wire"
)

// The RPC methods of the wire transport.
const (
	MethodPrepare rpc.Method[PrepareArgs, PrepareReply] = "paxos.Prepare"
	MethodAccept  rpc.Method[AcceptArgs, AcceptReply]   = "paxos.Accept"
	MethodLearn   rpc.Method[LearnArgs, struct{}]       = "paxos.Learn"
)

// RegisterRPC exposes a node's acceptor and learner roles on a wire
// server.
func RegisterRPC(srv *wire.Server, n *Node) error {
	return errors.Join(
		MethodPrepare.Handle(srv, func(_ context.Context, a PrepareArgs) (PrepareReply, error) {
			return n.HandlePrepare(a), nil
		}),
		MethodAccept.Handle(srv, func(_ context.Context, a AcceptArgs) (AcceptReply, error) {
			return n.HandleAccept(a), nil
		}),
		MethodLearn.Handle(srv, func(_ context.Context, a LearnArgs) (struct{}, error) {
			n.HandleLearn(a)
			return struct{}{}, nil
		}),
	)
}

// RPCTransport is a Transport over the control plane's pooled session
// layer: the peer dials lazily with a bounded connect timeout and is
// replaced transparently when it dies, so a restarted Paxos peer is
// picked up without the proposer noticing. Prepare/Accept/Learn are all
// idempotent protocol messages, so the session layer's retry-on-unsent
// policy is safe here.
type RPCTransport struct {
	peer *rpc.Peer
}

var _ Transport = (*RPCTransport)(nil)

// NewRPCTransport creates a transport for the peer at addr.
func NewRPCTransport(addr string) *RPCTransport {
	return &RPCTransport{peer: rpc.NewPeer(addr, rpc.Options{})}
}

// call runs one protocol message against the peer, naming both in the
// error.
func call[Req, Resp any](ctx context.Context, t *RPCTransport, m rpc.Method[Req, Resp], args Req) (Resp, error) {
	reply, err := m.Call(ctx, t.peer, args)
	if err != nil {
		err = fmt.Errorf("paxos: %s %s: %w", m, t.peer.Addr(), err)
	}
	return reply, err
}

// Prepare implements Transport.
func (t *RPCTransport) Prepare(ctx context.Context, args PrepareArgs) (PrepareReply, error) {
	return call(ctx, t, MethodPrepare, args)
}

// Accept implements Transport.
func (t *RPCTransport) Accept(ctx context.Context, args AcceptArgs) (AcceptReply, error) {
	return call(ctx, t, MethodAccept, args)
}

// Learn implements Transport.
func (t *RPCTransport) Learn(ctx context.Context, args LearnArgs) error {
	_, err := call(ctx, t, MethodLearn, args)
	return err
}

// Close releases the underlying session.
func (t *RPCTransport) Close() error {
	return t.peer.Close()
}
