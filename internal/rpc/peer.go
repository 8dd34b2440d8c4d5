package rpc

import (
	"context"
	"errors"
	"sync"

	"github.com/mayflower-dfs/mayflower/internal/wire"
)

// ErrClosed is returned for calls through a closed Peer or Pool.
var ErrClosed = errors.New("rpc: peer closed")

// Peer is one pooled control-plane session to a remote address: all
// callers of the same address share one multiplexed wire connection,
// lazily dialed and transparently replaced when it dies. Peer implements
// Caller; the typed service stubs wrap it. Safe for concurrent use.
type Peer struct {
	addr string
	opts Options
	met  *peerMetrics
	call CallFunc // composed interceptor chain ending in transportCall

	// dialMu serializes reconnection so a burst of calls against a dead
	// session produces one dial, not a thundering herd; calls that find a
	// live session never touch it.
	dialMu sync.Mutex

	mu     sync.Mutex
	sess   *wire.Client
	epoch  uint64 // dial generation; bumps on every successful (re)connect
	closed bool
}

// NewPeer creates a standalone peer (no pool) for addr.
func NewPeer(addr string, opts Options) *Peer {
	p := &Peer{
		addr: addr,
		opts: opts.withDefaults(),
	}
	p.met = newPeerMetrics(p.opts, addr)
	next := CallFunc(p.transportCall)
	for i := len(p.opts.Intercept) - 1; i >= 0; i-- {
		next = p.opts.Intercept[i](addr, next)
	}
	p.call = p.met.instrument(next)
	return p
}

// Addr returns the remote address this peer serves.
func (p *Peer) Addr() string { return p.addr }

// Epoch returns the peer's dial generation: 0 before the first
// connection, incremented on every successful (re)connect. Consumers
// with connection-scoped server state (the dataserver's registration
// with the nameserver) compare epochs to learn that a reconnect happened
// and that state must be re-established.
func (p *Peer) Epoch() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.epoch
}

// Connect ensures a live session exists, dialing if needed (bounded by
// ctx and the connect timeout). Calls dial lazily; Connect exists for
// fail-fast startup paths that want a misconfigured address to surface
// immediately.
func (p *Peer) Connect(ctx context.Context) error {
	_, err := p.session(ctx)
	return err
}

// Reset discards the current session, if any; the next call re-dials.
// Chaos scenarios use it to model a severed control connection.
func (p *Peer) Reset() {
	p.mu.Lock()
	sess := p.sess
	p.sess = nil
	p.mu.Unlock()
	if sess != nil {
		sess.Close()
	}
}

// Close shuts the peer down; subsequent calls fail with ErrClosed.
func (p *Peer) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	sess := p.sess
	p.sess = nil
	p.mu.Unlock()
	if sess != nil {
		return sess.Close()
	}
	return nil
}

// Call issues one RPC through the interceptor chain. See transportCall
// for the session/retry contract.
func (p *Peer) Call(ctx context.Context, method string, args, reply any) error {
	return p.call(ctx, method, args, reply)
}

// session returns the live shared session, dialing (or replacing a dead
// one) if needed.
func (p *Peer) session(ctx context.Context) (*wire.Client, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	if s := p.sess; s != nil && s.Err() == nil {
		p.mu.Unlock()
		return s, nil
	}
	p.mu.Unlock()

	p.dialMu.Lock()
	defer p.dialMu.Unlock()
	// Re-check: another caller may have completed the dial while this one
	// waited on dialMu.
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	if s := p.sess; s != nil && s.Err() == nil {
		p.mu.Unlock()
		return s, nil
	}
	dead := p.sess
	p.sess = nil
	reconnect := p.epoch > 0
	p.mu.Unlock()
	if dead != nil {
		dead.Close()
	}

	dctx, cancel := context.WithTimeout(ctx, p.opts.ConnectTimeout)
	defer cancel()
	s, err := p.opts.Dial(dctx, p.addr)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		s.Close()
		return nil, ErrClosed
	}
	p.sess = s
	p.epoch++
	p.mu.Unlock()
	if reconnect {
		p.met.reconnects.Inc()
	}
	return s, nil
}

// drop discards sess if it is still the cached session; a concurrent
// caller may already have replaced it.
func (p *Peer) drop(sess *wire.Client) {
	p.mu.Lock()
	if p.sess == sess {
		p.sess = nil
	}
	p.mu.Unlock()
	sess.Close()
}

// reconnectBudget is how many transparent redials one call may make.
const reconnectBudget = 1

// transportCall is the innermost CallFunc: acquire the shared session,
// send, and handle transport death. A failed call is transparently
// retried on a fresh connection only when wire proves the request never
// reached the network (*wire.UnsentError — dead cached session, broken
// write) and the per-call reconnect budget allows; anything after the
// frame was sent is returned as-is, because the handler may have run and
// the method may not be idempotent. Dial failures share the same budget.
func (p *Peer) transportCall(ctx context.Context, method string, args, reply any) error {
	for pass := 0; ; pass++ {
		if pass > 0 {
			p.met.retries.Inc()
			if err := p.opts.Backoff.Sleep(ctx, pass); err != nil {
				return err
			}
		}
		sess, err := p.session(ctx)
		if err == nil {
			err = sess.Call(ctx, method, args, reply)
			if err == nil {
				return nil
			}
			var remote *wire.RemoteError
			if errors.As(err, &remote) || ctx.Err() != nil {
				// Application error or caller abandonment: the session is
				// healthy, nothing to retry.
				return err
			}
			// Transport failure: this session is dead either way.
			p.drop(sess)
			var unsent *wire.UnsentError
			if !errors.As(err, &unsent) {
				// The request reached the wire; retrying could re-run a
				// non-idempotent handler. The next call gets a fresh
				// session.
				return err
			}
		} else if errors.Is(err, ErrClosed) {
			return err
		}
		if pass >= reconnectBudget {
			return err
		}
	}
}
