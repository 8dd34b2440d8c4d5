// Package client is the Mayflower client library (§3.3, §5 of the
// paper). It talks to the nameserver for metadata, consults the
// Flowserver during reads so replica and network path are chosen jointly
// with the SDN control plane, and moves bulk data directly against
// dataservers. Its interface is deliberately HDFS-like: create, append,
// read, delete, list and stat.
//
// The client caches file metadata to reduce nameserver load. Mayflower's
// append-only semantics make the cache safe: a file's identity, chunk
// size and replica set never change while it exists, and its size only
// grows — the dataserver reports the current size with every read, so a
// reader discovers newly appended data without asking the nameserver.
//
// Two consistency modes are offered (§3.4): Sequential (default) lets any
// replica serve any chunk; Strong additionally routes reads that touch
// the last (still mutable) chunk to the primary, which orders appends —
// every other chunk is immutable and safe from any replica.
package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/dataserver"
	"github.com/mayflower-dfs/mayflower/internal/fabric"
	"github.com/mayflower-dfs/mayflower/internal/flowctl"
	"github.com/mayflower-dfs/mayflower/internal/flowserver"
	"github.com/mayflower-dfs/mayflower/internal/nameserver"
	"github.com/mayflower-dfs/mayflower/internal/obs"
	"github.com/mayflower-dfs/mayflower/internal/rpc"
	"github.com/mayflower-dfs/mayflower/internal/topology"
	"github.com/mayflower-dfs/mayflower/internal/wire"
)

// Consistency selects the read consistency mode (§3.4).
type Consistency int

// Consistency modes.
const (
	// Sequential consistency: reads may go to any replica.
	Sequential Consistency = iota + 1
	// Strong consistency: reads touching the last chunk go to the
	// primary; immutable chunks may still come from any replica.
	Strong
)

// Options configure a client.
type Options struct {
	// NameserverAddr is the nameserver's RPC address (required).
	NameserverAddr string
	// FlowserverAddr is the flow control plane's address — the shard
	// directory, served by the (first) mayflower-flowserver on its one
	// listen port. The client resolves the shard owning its pod there,
	// caches the route under the directory epoch for FlowRouteTTL, and
	// rebinds whenever a Lookup returns a higher epoch — a failed-over
	// shard must not keep serving new Selects from a stale cached peer.
	// Requires Host to parse under topology.ParseHostName (the pod is the
	// routing key).
	// When empty the client picks replicas uniformly at random (the
	// degraded mode the paper compares against).
	FlowserverAddr string
	// FlowRouteTTL is how long a resolved shard route is reused before
	// the directory is consulted again (flowctl.DefaultRouteTTL if zero),
	// measured on Clock. Select failures re-resolve immediately
	// regardless.
	FlowRouteTTL time.Duration
	// Host is the topology host name this client runs on, passed to the
	// Flowserver for path selection.
	Host string
	// Consistency is the read mode; Sequential if zero.
	Consistency Consistency
	// CacheTTL is the metadata lease length: how long file→dataserver
	// mappings are served without nameserver traffic before the lease is
	// revalidated with a batched ns.Validate (30 s if zero; the paper
	// sizes this against replica migration and failure rates). Leases are
	// measured on Clock, so under a compressed fabric clock the TTL means
	// fabric seconds, not wall seconds.
	CacheTTL time.Duration
	// Clock supplies the time base for lease expiry; the wall clock if
	// nil. The testbed injects its fabric clock, so leases tick on the
	// deployment's one time base.
	Clock fabric.Clock
	// DialData opens a bulk data connection; a plain TCP dial if nil. It
	// is called on a pool miss: the client keeps what it returns and
	// reuses it across reads (dataserver.Bulk).
	DialData func(ctx context.Context, addr string) (net.Conn, error)
	// Rand drives replica selection fallback; seeded from the clock if
	// nil.
	Rand *rand.Rand
	// PickReplica, when set, chooses the replica for a read instead of
	// leaving the choice to the Flowserver (the testbed's HDFS modes set
	// it from selection.HDFSRackAware). With a Flowserver configured the
	// client still asks it to schedule the network path for the
	// pre-picked replica — the paper's "HDFS-Mayflower" configuration
	// (§6.7); without one, reads go straight to the picked replica.
	PickReplica func(info nameserver.FileInfo) nameserver.ReplicaLoc
	// AssignFlow, when set and no Flowserver is configured, runs before
	// each bulk read so a harness can register the transfer with a
	// network emulator or traffic-engineering system (e.g. to give ECMP
	// flows a paced path). It returns the flow id to tag the read with
	// and a cleanup callback invoked when the read finishes.
	AssignFlow func(replicaHost string, bytes int64) (flowID uint64, done func())
	// DialControl opens the sessions behind the client's control-plane
	// peer pool (nameserver, flowserver and dataserver alike);
	// rpc.DialSession with a bounded connect if nil. Fault-injection
	// harnesses substitute a partition-aware dialer here.
	DialControl func(ctx context.Context, addr string) (*wire.Client, error)
	// RetryBackoff is the base delay before the second failover pass,
	// doubled each further pass and capped at 2 s (50 ms if zero).
	RetryBackoff time.Duration
	// WriteRetries is how many attempts each append piece makes before
	// giving up (3 if zero). Between attempts the file metadata is
	// refreshed so a repair-promoted primary is picked up, and pieces are
	// re-sent under the same sequence number so dataservers deduplicate
	// them — a retry never appends bytes twice.
	WriteRetries int
	// AppendPieceBytes overrides the append piece size (dataserver
	// MaxAppend if zero or larger; tests shrink it to exercise multi-piece
	// appends with small payloads).
	AppendPieceBytes int
	// FlowserverTimeout bounds the Flowserver Select RPC (2 s if zero,
	// <0 disables). On expiry or error the client degrades to
	// locality-order replica selection; the Flowserver is an optimizer,
	// not a dependency.
	FlowserverTimeout time.Duration
	// Metrics optionally publishes the client's failover and attempt
	// counters under "client." names. Instrumentation is always on.
	Metrics *obs.Registry
}

// The client's fixed limits.
const (
	// cacheEntries caps the metadata cache; least-recently-used entries
	// are evicted beyond it.
	cacheEntries = 4096
	// readTimeout bounds each per-replica read attempt: on expiry the
	// read fails over to the next candidate instead of hanging on a
	// stalled or partitioned replica.
	readTimeout = 2 * time.Minute
	// readPasses is how many full passes over the replica candidates a
	// read makes before giving up. File metadata is refreshed between
	// passes so repaired replica sets and promoted primaries are picked
	// up mid-failure.
	readPasses = 2
	// rpcTimeout is the deadline applied to small metadata and control
	// RPCs when the caller's context has none, so a stalled nameserver
	// cannot hang the client.
	rpcTimeout = 10 * time.Second
)

// clientMetrics counts the fault-handling read path: failover passes,
// per-replica attempt outcomes, time spent backing off, and reads that
// ran degraded (no Flowserver schedule).
type clientMetrics struct {
	failoverPasses obs.Counter
	attemptsOK     obs.Counter
	attemptsErr    obs.Counter
	readsDegraded  obs.Counter
	backoffSeconds *obs.Histogram
	data           dataserver.BulkMetrics // bulk connections dialed, reused, replaced

	// Write path: flows registered for appends, failover passes across
	// primary re-election, per-piece attempt outcomes, and appends that
	// ran without a Flowserver schedule.
	writeFlows          obs.Counter
	writeFailoverPasses obs.Counter
	appendAttemptsOK    obs.Counter
	appendAttemptsErr   obs.Counter
	writesDegraded      obs.Counter

	// Metadata cache: lease hits/misses/renewals, stale records caught
	// at renewal, evictions, entry count.
	cache cacheMetrics
}

func (m *clientMetrics) register(r *obs.Registry) {
	r.RegisterCounter("client.failover_passes", &m.failoverPasses)
	r.RegisterCounter("client.read_attempts_ok", &m.attemptsOK)
	r.RegisterCounter("client.read_attempts_err", &m.attemptsErr)
	r.RegisterCounter("client.reads_degraded", &m.readsDegraded)
	r.RegisterHistogram("client.backoff_seconds", m.backoffSeconds)
	r.RegisterCounter("client.data_dials", &m.data.Dials)
	r.RegisterCounter("client.data_reuses", &m.data.Reuses)
	r.RegisterCounter("client.data_redials", &m.data.Redials)
	r.RegisterCounter("client.write_flows", &m.writeFlows)
	r.RegisterCounter("client.write_failover_passes", &m.writeFailoverPasses)
	r.RegisterCounter("client.append_attempts_ok", &m.appendAttemptsOK)
	r.RegisterCounter("client.append_attempts_err", &m.appendAttemptsErr)
	r.RegisterCounter("client.writes_degraded", &m.writesDegraded)
	m.cache.register(r)
}

// Client is a Mayflower filesystem client. It is safe for concurrent use.
type Client struct {
	opts Options
	pool *rpc.Pool        // one shared session per control-plane address
	bulk *dataserver.Bulk // every bulk read, over pooled data connections
	ns   *nameserver.Client
	fr   *flowctl.Router // nil: no Flowserver, degraded replica selection

	// pod and rack locate Host for locality-order replica selection;
	// located is false when Host does not parse (every replica then
	// ranks as remote).
	pod, rack int
	located   bool

	cache *metaCache

	mu  sync.Mutex
	rng *rand.Rand

	quiet sync.RWMutex  // see sequence
	left  chan struct{} // a token when a call leaves quiet (buffered 1)

	met   clientMetrics
	retry rpc.Backoff
}

// sequence, the innermost interceptor, sends a lone release (a stub's
// linger flush) only while no other control call of the client is on the
// wire, never queueing ahead of one: background traffic never interleaves
// with a closed-loop caller's exchanges. A waiting release tries again
// whenever a call leaves, so it goes as soon as the last one has.
func (c *Client) sequence(_ string, next rpc.CallFunc) rpc.CallFunc {
	return func(ctx context.Context, method string, args, reply any) error {
		defer c.leave() // after the unlock: deferred calls run last first
		if method != string(flowserver.MethodFinished) {
			c.quiet.RLock()
			defer c.quiet.RUnlock()
		} else {
			for !c.quiet.TryLock() {
				select {
				case <-c.left:
				case <-ctx.Done():
					return ctx.Err()
				}
			}
			defer c.quiet.Unlock()
		}
		return next(ctx, method, args, reply)
	}
}

func (c *Client) leave() {
	select {
	case c.left <- struct{}{}:
	default: // a token already waits
	}
}

// New connects a client.
func New(opts Options) (*Client, error) {
	if opts.NameserverAddr == "" {
		return nil, errors.New("client: NameserverAddr is required")
	}
	if opts.Consistency == 0 {
		opts.Consistency = Sequential
	}
	if opts.CacheTTL == 0 {
		opts.CacheTTL = 30 * time.Second
	}
	if opts.RetryBackoff == 0 {
		opts.RetryBackoff = 50 * time.Millisecond
	}
	if opts.WriteRetries == 0 {
		opts.WriteRetries = 3
	}
	if opts.FlowserverTimeout == 0 {
		opts.FlowserverTimeout = 2 * time.Second
	}
	rng := opts.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}

	c := &Client{
		opts:  opts,
		rng:   rng,
		left:  make(chan struct{}, 1),
		retry: rpc.Backoff{Base: opts.RetryBackoff},
	}
	c.pod, c.rack, c.located = topology.ParseHostName(opts.Host)
	poolOpts := rpc.Options{
		ConnectTimeout: 5 * time.Second,
		Dial:           opts.DialControl,
		Backoff:        rpc.Backoff{Base: opts.RetryBackoff},
		Metrics:        opts.Metrics,
		MetricsPrefix:  "client.rpc",
	}
	if opts.Metrics != nil {
		// Per-method call counters make the metadata path observable:
		// ns.Lookup vs ns.Validate traffic shows what the lease cache
		// saves.
		poolOpts.Intercept = []rpc.Interceptor{rpc.MethodMetrics(opts.Metrics, "client.rpc")}
	}
	poolOpts.Intercept = append(poolOpts.Intercept, c.sequence)
	pool := rpc.NewPool(poolOpts)
	c.pool = pool
	c.ns = nameserver.NewClient(pool.Peer(opts.NameserverAddr))
	c.bulk = dataserver.NewBulk(opts.DialData, readTimeout, &c.met.data)
	c.cache = newMetaCache(cacheEntries, opts.CacheTTL.Seconds(), opts.Clock, &c.met.cache)
	c.cache.lookup = func(ctx context.Context, name string) (nameserver.FileInfo, error) {
		lctx, cancel := c.rpcCtx(ctx)
		defer cancel()
		return c.ns.Lookup(lctx, name)
	}
	c.cache.validate = func(ctx context.Context, epoch int64, entries []nameserver.ValidateEntry) ([]nameserver.ValidateResult, int64, error) {
		vctx, cancel := c.rpcCtx(ctx)
		defer cancel()
		return c.ns.Validate(vctx, epoch, entries)
	}
	// Fail fast on a misconfigured nameserver address; the pool re-dials
	// on its own from here on.
	cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	err := pool.Peer(opts.NameserverAddr).Connect(cctx)
	cancel()
	if err != nil {
		pool.Close()
		return nil, fmt.Errorf("client: connect nameserver: %w", err)
	}
	c.met.backoffSeconds = obs.NewHistogram(1e-4, 10)
	if opts.Metrics != nil {
		c.met.register(opts.Metrics)
	}
	if opts.FlowserverAddr != "" {
		// The Flowserver is an optimizer, not a dependency: its peers dial
		// lazily and every Select is bounded by FlowserverTimeout, so an
		// unreachable control plane degrades reads to locality-order
		// replica selection instead of failing them.
		if !c.located {
			pool.Close()
			return nil, fmt.Errorf("client: FlowserverAddr routing needs a locatable Host, got %q", opts.Host)
		}
		c.fr = flowctl.NewRouter(pool, opts.FlowserverAddr, c.pod, opts.FlowRouteTTL, opts.Clock)
	}
	return c, nil
}

// Close sends the flow releases still queued, then tears down every
// pooled control and idle data connection.
func (c *Client) Close() error {
	if c.fr != nil {
		c.fr.Close()
	}
	c.bulk.Close()
	return c.pool.Close()
}

// control returns the typed control stub for a dataserver, backed by the
// pool's shared session for that address (dialed lazily, replaced
// automatically when it dies).
func (c *Client) control(addr string) *dataserver.Client {
	return dataserver.NewClient(c.pool.Peer(addr))
}

// fileInfo returns (possibly cached) metadata for a file; see metaCache
// for the lease protocol.
func (c *Client) fileInfo(ctx context.Context, name string) (nameserver.FileInfo, error) {
	return c.cache.Get(ctx, name)
}

func (c *Client) storeCache(name string, info nameserver.FileInfo) {
	c.cache.Store(name, info)
}

func (c *Client) invalidate(name string) {
	c.cache.Invalidate(name)
}

// observeSize folds a size learned from a dataserver read into the cache
// (sizes only grow under append-only semantics). version must be the
// version of the record the size was observed under, so a stale read
// cannot resurrect or pollute a newer cached record.
func (c *Client) observeSize(name string, version, size int64) {
	c.cache.ObserveSize(name, version, size)
}

// Create creates a file: the nameserver allocates replicas, then the
// primary dataserver prepares local state and relays to the other
// replicas.
func (c *Client) Create(ctx context.Context, name string, opts nameserver.CreateOptions) (nameserver.FileInfo, error) {
	cctx, cancel := c.rpcCtx(ctx)
	info, err := c.ns.Create(cctx, name, opts)
	cancel()
	if err != nil {
		return nameserver.FileInfo{}, err
	}
	prepare := func() error {
		pctx, pcancel := c.rpcCtx(ctx)
		defer pcancel()
		return c.control(info.Primary().ControlAddr).
			Prepare(pctx, dataserver.PrepareArgs{Info: info, Relay: true})
	}
	if err := prepare(); err != nil {
		// The nameserver installed the file before Prepare ran; without
		// cleanup a failed create strands a zero-byte orphan that blocks
		// the name forever. Best-effort: the metadata delete is what
		// matters, and an error from it keeps the orphan — the caller's
		// retry then reports ErrExists rather than silently re-creating.
		dctx, dcancel := c.rpcCtx(ctx)
		_, _ = c.ns.Delete(dctx, name)
		dcancel()
		return nameserver.FileInfo{}, fmt.Errorf("client: prepare %s: %w", name, err)
	}
	c.storeCache(name, info)
	return info, nil
}

// Append appends data to a file through its primary replica and returns
// the file's new size. Large appends are split into MaxAppend pieces
// (see write.go for the failover and flow-scheduling machinery).
//
// Each piece is retried across primary failures: the client drops its
// cached metadata and control connection, backs off, refreshes the
// replica set (picking up a repair-promoted primary), and re-sends the
// piece under the same sequence number, which dataservers deduplicate —
// a retry after a lost ack never appends bytes twice.
//
// On error, the returned size is the file size as of the last piece this
// call got acknowledged (0 when no piece was acknowledged): bytes up to
// that size are durably appended, bytes past it are not guaranteed.
func (c *Client) Append(ctx context.Context, name string, data []byte) (int64, error) {
	info, err := c.fileInfo(ctx, name)
	if err != nil {
		return 0, err
	}
	if len(data) == 0 {
		return info.SizeBytes, nil
	}

	// Register the client→primary transfer with the Flowserver so write
	// traffic is scheduled (and visible) like reads; the primary registers
	// the replication hops itself.
	wf := c.registerWriteFlow(ctx, info.Primary().Host, float64(len(data))*8)
	defer wf.finish()

	pieceMax := dataserver.MaxAppend
	if p := c.opts.AppendPieceBytes; p > 0 && p < pieceMax {
		pieceMax = p
	}
	seqBase := c.appendSeqBase()
	var size int64
	for off, piece := 0, 0; off < len(data); piece++ {
		n := len(data) - off
		if n > pieceMax {
			n = pieceMax
		}
		seq := seqBase + uint64(piece)
		if seq == 0 {
			seq = 1
		}
		remBits := float64(len(data)-off) * 8
		sz, fresh, err := c.appendPiece(ctx, name, info, seq, data[off:off+n], remBits, &wf)
		info = fresh
		if err != nil {
			return size, fmt.Errorf("client: append %s: %w", name, err)
		}
		size = sz
		off += n
	}
	c.observeSize(name, info.Version, size)
	return size, nil
}

// Stat returns fresh metadata: the nameserver record with the size
// corrected by a dataserver's local size (the primary is asked first; on
// its failure the remaining replicas answer). If every replica of the
// cached set is unreachable the metadata is refreshed once — a repaired
// replica set may have entirely superseded the cached one.
func (c *Client) Stat(ctx context.Context, name string) (nameserver.FileInfo, error) {
	info, err := c.fileInfo(ctx, name)
	if err != nil {
		return nameserver.FileInfo{}, err
	}
	size, serr := c.statReplicas(ctx, info)
	if serr != nil {
		c.invalidate(name)
		info, err = c.fileInfo(ctx, name)
		if err != nil {
			return nameserver.FileInfo{}, err
		}
		size, serr = c.statReplicas(ctx, info)
		if serr != nil {
			return nameserver.FileInfo{}, fmt.Errorf("client: stat %s: %w", name, serr)
		}
	}
	if size > info.SizeBytes {
		info.SizeBytes = size
		c.observeSize(name, info.Version, size)
	}
	return info, nil
}

// List returns metadata for files whose names have the given prefix.
func (c *Client) List(ctx context.Context, prefix string) ([]nameserver.FileInfo, error) {
	lctx, cancel := c.rpcCtx(ctx)
	defer cancel()
	return c.ns.List(lctx, prefix)
}

// Delete removes a file: metadata first (so new readers stop finding it),
// then the replicas' chunk data. Replica cleanup failures are collected
// but do not resurrect the file.
func (c *Client) Delete(ctx context.Context, name string) error {
	dctx, cancel := c.rpcCtx(ctx)
	info, err := c.ns.Delete(dctx, name)
	cancel()
	if err != nil {
		return err
	}
	c.invalidate(name)
	var firstErr error
	for _, rep := range info.Replicas {
		cctx, ccancel := c.rpcCtx(ctx)
		err := c.control(rep.ControlAddr).Delete(cctx, info.ID)
		ccancel()
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return fmt.Errorf("client: delete %s replicas: %w", name, firstErr)
	}
	return nil
}

// ReadAll reads the whole file at its current authoritative size.
func (c *Client) ReadAll(ctx context.Context, name string) ([]byte, error) {
	info, err := c.Stat(ctx, name)
	if err != nil {
		return nil, err
	}
	if info.SizeBytes == 0 {
		return nil, nil
	}
	return c.ReadAt(ctx, name, 0, info.SizeBytes)
}

// ReadAt reads length bytes starting at offset.
func (c *Client) ReadAt(ctx context.Context, name string, offset, length int64) ([]byte, error) {
	if offset < 0 || length < 0 {
		return nil, fmt.Errorf("client: invalid range [%d, %d)", offset, offset+length)
	}
	info, err := c.fileInfo(ctx, name)
	if err != nil {
		return nil, err
	}
	if length == 0 {
		return nil, nil
	}
	if offset+length > info.SizeBytes {
		// The cached size may be stale under appends; revalidate.
		info, err = c.Stat(ctx, name)
		if err != nil {
			return nil, err
		}
		if offset+length > info.SizeBytes {
			return nil, fmt.Errorf("client: read [%d, %d) beyond size %d", offset, offset+length, info.SizeBytes)
		}
	}

	buf := make([]byte, length)
	if c.opts.Consistency == Strong {
		// Immutable chunks can come from anywhere; the tail chunk must
		// come from the primary, which orders appends (§3.4).
		lastChunkStart := (info.SizeBytes - 1) / info.ChunkSize * info.ChunkSize
		if offset+length > lastChunkStart {
			split := lastChunkStart - offset
			if split < 0 {
				split = 0
			}
			var wg sync.WaitGroup
			var errBody, errTail error
			if split > 0 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errBody = c.readSegment(ctx, name, info, offset, buf[:split], false)
				}()
			}
			errTail = c.readSegment(ctx, name, info, offset+split, buf[split:], true)
			wg.Wait()
			if errBody != nil {
				return nil, errBody
			}
			if errTail != nil {
				return nil, errTail
			}
			return buf, nil
		}
	}
	if err := c.readSegment(ctx, name, info, offset, buf, false); err != nil {
		return nil, err
	}
	return buf, nil
}

// readSegment fills buf from the file starting at offset. primaryOnly
// pins the read to the primary replica; otherwise the Flowserver (when
// configured) chooses the replica(s) and may split the read in two
// (§4.3). Every branch funnels into readWithFailover, so a dead or
// stalled replica costs a bounded attempt, never the read.
func (c *Client) readSegment(ctx context.Context, name string, info nameserver.FileInfo, offset int64, buf []byte, primaryOnly bool) error {
	if len(buf) == 0 {
		return nil
	}
	if primaryOnly || c.fr == nil {
		cands := []nameserver.ReplicaLoc{info.Primary()}
		if !primaryOnly {
			c.met.readsDegraded.Inc()
			first := info.Primary()
			if c.opts.PickReplica != nil {
				first = c.opts.PickReplica(info)
			} else {
				// Random first pick spreads load in the degraded
				// no-flowserver mode the paper compares against; failover
				// candidates follow in locality order.
				first = info.Replicas[c.pick(len(info.Replicas))]
			}
			cands = c.orderCandidates(info, &first)
		}
		return c.readWithFailover(ctx, name, info, cands, c.assignTagger(len(buf)), offset, buf, primaryOnly)
	}

	candidates := info.Replicas
	if c.opts.PickReplica != nil {
		// Replica pre-picked (HDFS-Mayflower mode): the Flowserver only
		// schedules the path.
		candidates = []nameserver.ReplicaLoc{c.opts.PickReplica(info)}
	}
	hl := hostLists.Get().(*[]string)
	defer hostLists.Put(hl)
	hosts := (*hl)[:0]
	byHost := make(map[string]nameserver.ReplicaLoc, len(candidates))
	for _, r := range candidates {
		hosts = append(hosts, r.Host)
		byHost[r.Host] = r
	}
	*hl = hosts
	sctx := ctx
	if t := c.opts.FlowserverTimeout; t > 0 {
		var cancel context.CancelFunc
		sctx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
	}
	assignments, fstub, err := c.flowSelect(sctx, flowserver.SelectArgs{
		ClientHost:   c.opts.Host,
		ReplicaHosts: hosts,
		Bits:         float64(len(buf)) * 8,
	})
	if err != nil || len(assignments) == 0 {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		// The Flowserver is an optimizer, not a dependency: degrade to
		// locality-order replica selection with unscheduled flows.
		c.met.readsDegraded.Inc()
		return c.readWithFailover(ctx, name, info, c.orderCandidates(info, nil), nil, offset, buf, false)
	}
	if a := assignments[0]; len(assignments) == 1 { // the usual case: one segment, nothing to join
		rep, ok := byHost[a.ReplicaHost]
		if !ok {
			return fmt.Errorf("client: flowserver chose unknown replica host %q", a.ReplicaHost)
		}
		return c.readAssigned(ctx, name, info, fstub, a, rep, offset, buf)
	}

	// Convert the bit split into byte ranges, last assignment taking the
	// remainder.
	totalBits := 0.0
	for _, a := range assignments {
		totalBits += a.Bits
	}
	var (
		wg       sync.WaitGroup
		errs     = make([]error, len(assignments))
		segStart = int64(0)
	)
	for i, a := range assignments {
		rep, ok := byHost[a.ReplicaHost]
		if !ok {
			return fmt.Errorf("client: flowserver chose unknown replica host %q", a.ReplicaHost)
		}
		segLen := int64(len(buf)) - segStart
		if i < len(assignments)-1 && totalBits > 0 {
			segLen = int64(float64(len(buf)) * a.Bits / totalBits)
			if rem := int64(len(buf)) - segStart; segLen > rem {
				segLen = rem
			}
		}
		off, sub := offset+segStart, buf[segStart:segStart+segLen]
		segStart += segLen
		if i == len(assignments)-1 {
			errs[i] = c.readAssigned(ctx, name, info, fstub, a, rep, off, sub) // the last segment runs on this goroutine
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.readAssigned(ctx, name, info, fstub, a, rep, off, sub)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// hostLists recycles fs.Select's replica host lists: a request is
// encoded before Select returns, so its list is free again once it has.
var hostLists = sync.Pool{New: func() any { return new([]string) }}

// readAssigned reads one segment as the Flowserver assigned it: the
// scheduled flow id applies only to the replica it chose, failover
// attempts run unscheduled. The flow is released whether or not the read
// (or its context) failed: queued, no round trip, on the stub that
// issued it — under directory routing only the coordinating shard knows
// the flow. A local assignment registered none.
func (c *Client) readAssigned(ctx context.Context, name string, info nameserver.FileInfo, fstub *flowserver.RPCClient, a flowserver.AssignmentDTO, rep nameserver.ReplicaLoc, offset int64, buf []byte) error {
	tag := func(r nameserver.ReplicaLoc) (uint64, func()) {
		if r.ServerID == rep.ServerID {
			return uint64(a.FlowID), nil
		}
		return 0, nil
	}
	err := c.readWithFailover(ctx, name, info, c.orderCandidates(info, &rep), tag, offset, buf, false)
	if !a.Local {
		fstub.Release(a.FlowID)
	}
	return err
}

// flowSelect runs one Select against the shard owning this client's
// pod (re-routed once through the directory on failure, see
// flowctl.Router.Do) and returns the stub that answered, which the
// flow's release must be queued on.
func (c *Client) flowSelect(ctx context.Context, args flowserver.SelectArgs) ([]flowserver.AssignmentDTO, *flowserver.RPCClient, error) {
	var as []flowserver.AssignmentDTO
	stub, err := c.fr.Do(ctx, func(fs *flowserver.RPCClient) (err error) {
		as, err = fs.Select(ctx, args)
		return err
	})
	return as, stub, err
}

func (c *Client) pick(n int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Intn(n)
}

// assignTagger adapts Options.AssignFlow to a flowTagger for reads that
// bypass the Flowserver; nil when no AssignFlow hook is configured.
func (c *Client) assignTagger(n int) flowTagger {
	if c.opts.AssignFlow == nil {
		return nil
	}
	return func(rep nameserver.ReplicaLoc) (uint64, func()) {
		return c.opts.AssignFlow(rep.Host, int64(n))
	}
}
