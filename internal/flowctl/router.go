package flowctl

import (
	"context"
	"sync"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/fabric"
	"github.com/mayflower-dfs/mayflower/internal/flowserver"
	"github.com/mayflower-dfs/mayflower/internal/rpc"
)

// DefaultRouteTTL is how long a Router reuses a resolved route before
// consulting the directory again when the caller names no TTL.
const DefaultRouteTTL = 5 * time.Second

// Router resolves which shard serves one pod and caches the route under
// its directory epoch; clients route Selects through it and dataservers
// their relay plans. The control-plane address a caller is configured
// with is the directory's: the shard owning a pod changes when the
// directory fails a dead shard over, and the bump of the directory
// epoch is the only signal. The router's contract is therefore
// epoch-checked rebinding: a cached peer bound under epoch E must stop
// serving new selections the moment a Lookup returns epoch > E — even
// while the old shard's process is still alive and its pooled session
// still connected. (Routing new work to a live-but-deposed shard would
// split the pod's flow bookkeeping across two models; router_test.go
// pins this.)
type Router struct {
	dc    *DirectoryClient
	pool  *rpc.Pool
	pod   int
	ttl   float64 // route reuse window, seconds on clock
	clock fabric.Clock

	mu    sync.Mutex
	cur   *flowserver.RPCClient
	bound []*flowserver.RPCClient // every stub cur has been, for Close
	addr  string
	epoch int64
	fresh float64 // route trusted until (clock seconds)
	have  bool
}

// NewRouter routes pod's selections through the directory at dirAddr,
// dialing over pool. ttl is the route reuse window (DefaultRouteTTL if
// zero; negative re-resolves on every call) measured on clock — the
// wall clock if nil; deployments on a compressed fabric clock inject it
// so the window means fabric seconds, like every other lease.
func NewRouter(pool *rpc.Pool, dirAddr string, pod int, ttl time.Duration, clock fabric.Clock) *Router {
	if ttl == 0 {
		ttl = DefaultRouteTTL
	}
	if clock == nil {
		clock = fabric.NewWallClock()
	}
	return &Router{
		dc:    NewDirectoryClient(pool.Peer(dirAddr)),
		pool:  pool,
		pod:   pod,
		ttl:   ttl.Seconds(),
		clock: clock,
	}
}

// stub returns the Flowserver stub for the shard currently owning the
// pod, resolving through the directory when the cached route's reuse
// window lapsed. A Lookup failure degrades to the cached route if one
// exists (a stale shard beats none — the selection itself will fail
// over), else reports the error so the caller runs degraded.
func (r *Router) stub(ctx context.Context) (*flowserver.RPCClient, error) {
	now := r.clock.Now()
	r.mu.Lock()
	if r.have && now < r.fresh {
		cur := r.cur
		r.mu.Unlock()
		return cur, nil
	}
	r.mu.Unlock()

	rep, err := r.dc.Lookup(ctx, r.pod)

	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		if r.have {
			return r.cur, nil
		}
		return nil, err
	}
	// Bind on a fresh route, on a higher epoch (failover moved ownership;
	// the old peer session stays pooled but serves no further selections
	// here), or on the same epoch at a new address (the shard restarted
	// and re-registered). A lower epoch is a stale directory answer about
	// ownership this router already knows to be superseded: keep the
	// newer binding — rebinding backwards would reintroduce exactly the
	// deposed-shard hazard the epoch exists to prevent.
	if !r.have || rep.Epoch > r.epoch || (rep.Epoch == r.epoch && rep.Addr != r.addr) {
		r.cur = flowserver.NewRPCClient(r.pool.Peer(rep.Addr))
		r.bound = append(r.bound, r.cur)
		r.addr = rep.Addr
		r.epoch = rep.Epoch
	}
	r.have = true
	r.fresh = now + r.ttl
	return r.cur, nil
}

// invalidate drops the cached route so the next stub resolves through
// the directory immediately — how a caller whose selection against the
// cached shard failed discovers a kill before the route TTL lapses.
func (r *Router) invalidate() {
	r.mu.Lock()
	r.have = false
	r.mu.Unlock()
}

// Do runs one selection against the owning shard with directory-driven
// re-routing: a failure invalidates the cached route, re-resolves
// (picking up a freshly promoted shard), and retries once. It returns
// the stub the successful call ran against — releases of the flows it
// admitted go to that stub, which delivers them to the only shard that
// knows them — or the error that sends the caller to its degraded path.
func (r *Router) Do(ctx context.Context, call func(*flowserver.RPCClient) error) (*flowserver.RPCClient, error) {
	stub, err := r.stub(ctx)
	if err != nil {
		return nil, err
	}
	if err = call(stub); err == nil {
		return stub, nil
	}
	if ctx.Err() != nil {
		return nil, err
	}
	r.invalidate()
	stub, rerr := r.stub(ctx)
	if rerr != nil {
		return nil, err
	}
	if err = call(stub); err != nil {
		return nil, err
	}
	return stub, nil
}

// Close sends the releases still queued on every stub the router ever
// bound, each to its own shard — the only one that knows its flows. A
// caller runs it before closing the session pool the stubs ride.
func (r *Router) Close() {
	r.mu.Lock()
	bound := r.bound
	r.mu.Unlock()
	for _, stub := range bound {
		stub.Flush()
	}
}
