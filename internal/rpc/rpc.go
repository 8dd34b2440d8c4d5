// Package rpc is the control-plane session layer: every control message
// in the system — client↔nameserver, client↔dataserver,
// dataserver↔dataserver replication relays, flowserver registrations,
// Paxos traffic, repair, chaos probes — travels through a Peer from this
// package rather than a hand-dialed wire connection.
//
// The package owns exactly the concerns the eight former call sites each
// reimplemented (DESIGN.md §13):
//
//   - connection lifecycle: one shared, health-checked, multiplexed
//     session per remote address, lazily dialed with a bounded connect
//     timeout and transparently re-dialed when it dies;
//   - retry safety: a call is re-sent only when wire proves the request
//     never reached the network (*wire.UnsentError), so non-idempotent
//     methods are never duplicated;
//   - policy: one shared exponential Backoff and an Interceptor chain
//     with per-peer obs metrics (calls, errors, retries, reconnects,
//     inflight).
//
// Deadline and cancellation semantics come from wire itself: the caller's
// ctx deadline rides in the request frame and bounds the server-side
// handler ctx, and abandoning a call sends a cancel frame. The session
// layer adds nothing on top — which is the point; there is exactly one
// timeout mechanism.
//
// Every method is declared once as a Method[Req, Resp]; the per-service
// stubs (nameserver.Client, dataserver.Client, flowserver.RPCClient) call
// through it over the Caller interface, which tests can fake socket-free.
package rpc

import (
	"context"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/obs"
	"github.com/mayflower-dfs/mayflower/internal/wire"
)

// Caller is the hook the typed service stubs build on: anything that can
// issue one control-plane call. *Peer implements it; tests implement it
// in-memory.
type Caller interface {
	Call(ctx context.Context, method string, args, reply any) error
}

// CallFunc is the functional form of Caller, used by interceptors.
type CallFunc func(ctx context.Context, method string, args, reply any) error

// Interceptor wraps every call through a peer; addr identifies the
// remote. Interceptors compose like middleware: the first in the slice
// is outermost.
type Interceptor func(addr string, next CallFunc) CallFunc

// DefaultConnectTimeout bounds each TCP connect when Options.ConnectTimeout
// is zero. Matches the 5s the client historically used, and turns the
// former unbounded dials (paxos, dataserver relay) into bounded ones.
const DefaultConnectTimeout = 5 * time.Second

// Options configures a Pool or a standalone Peer. The zero value is
// usable: real TCP dials with DefaultConnectTimeout, one transparent
// reconnect attempt per call, no metrics.
type Options struct {
	// ConnectTimeout bounds each TCP connect (<=0: DefaultConnectTimeout).
	ConnectTimeout time.Duration
	// Dial establishes the underlying session (nil: DialSession). Chaos
	// scenarios inject partition-aware dialers here.
	Dial func(ctx context.Context, addr string) (*wire.Client, error)
	// Backoff spaces reconnect attempts within one call.
	Backoff Backoff
	// Metrics, when set, publishes per-peer counters and the inflight
	// gauge under "<MetricsPrefix>.peer.<addr>.*".
	Metrics *obs.Registry
	// MetricsPrefix namespaces this pool's metrics ("" : "rpc").
	MetricsPrefix string
	// Intercept wraps every call, outermost first, outside the built-in
	// metrics interceptor's instrumentation of retries but inside its
	// call/error accounting.
	Intercept []Interceptor
}

// withDefaults resolves zero fields to their documented defaults.
func (o Options) withDefaults() Options {
	if o.ConnectTimeout <= 0 {
		o.ConnectTimeout = DefaultConnectTimeout
	}
	if o.Dial == nil {
		o.Dial = DialSession
	}
	if o.MetricsPrefix == "" {
		o.MetricsPrefix = "rpc"
	}
	return o
}

// DialSession is the default session dialer and the single place the
// repo touches wire.DialContext (grep-enforced by a test): one bare,
// ctx-bounded TCP connect. Callers needing a raw session outside a Peer
// (the chaos partition scenario's connection tracker) go through here so
// the invariant holds.
func DialSession(ctx context.Context, addr string) (*wire.Client, error) {
	return wire.DialContext(ctx, addr)
}
