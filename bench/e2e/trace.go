package e2e

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/wire"
)

// The trace is recorded entirely from the benchmark's side of the public
// seams: client.Options.DialData and DialControl hand the client
// connections the harness wraps, so every byte the client exchanges with
// a server passes a clock the harness owns. Nothing inside the system is
// instrumented.
//
// A traced operation becomes the tree
//
//	op
//	├ client.pre_data      op start → bulk dial (or bulk append) begins
//	│   └ <layer>.rpc ...  control round trips seen on the wire
//	├ dataserver.connect   bulk dial begins → connected
//	├ dataserver.ttfb      connected → first response byte
//	├ dataserver.transfer  first byte → stream closed
//	├ (dataserver.append)  appends: the RPC that carries the payload
//	└ client.post_data     bulk done → op returns
//	    └ <layer>.rpc ...
//
// Siblings never overlap, so a span's self time is its duration minus
// its children's, and the self times of a tree sum to the op's duration.

// Span is one timed interval of a traced operation, in microseconds
// since the operation began.
type Span struct {
	Name     string  `json:"name"`
	StartUs  float64 `json:"start_us"`
	EndUs    float64 `json:"end_us"`
	SelfUs   float64 `json:"self_us"`
	Bytes    int     `json:"bytes,omitempty"`
	Children []*Span `json:"children,omitempty"`
}

// DurUs is the span's inclusive duration.
func (s *Span) DurUs() float64 { return s.EndUs - s.StartUs }

// Walk visits the span and every descendant.
func (s *Span) Walk(fn func(*Span)) {
	fn(s)
	for _, c := range s.Children {
		c.Walk(fn)
	}
}

// ctlEvent is one Read or Write returning on a wrapped control
// connection.
type ctlEvent struct {
	at    time.Duration
	addr  string
	write bool
	n     int
}

// opTrace is the raw record of one traced operation; zero durations mean
// "did not happen" (an append never dials a bulk connection).
type opTrace struct {
	start, end                           time.Duration
	dialStart, dialEnd, firstByte, close time.Duration
	dataBytes                            int
	ctl                                  []ctlEvent
}

type opKey struct{}

// withOp attaches the operation's record to the context the client call
// runs under; the client derives every dial context from it.
func withOp(ctx context.Context, ot *opTrace) context.Context {
	return context.WithValue(ctx, opKey{}, ot)
}

// tracer owns the clock and the connection wrappers of one run.
type tracer struct {
	base time.Time
	// layerOf names the module behind each control address.
	layerOf map[string]string

	// cur is the operation control traffic is attributed to. Control
	// sessions are shared and long-lived, so unlike bulk dials they carry
	// no per-operation context; attribution by "the one op in flight" is
	// sound only for a single closed-loop client, and only such workloads
	// set it.
	cur atomic.Pointer[opTrace]
	mu  sync.Mutex // guards cur's ctl slice: reads land on the session's reader goroutine
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), layerOf: make(map[string]string)}
}

func (t *tracer) now() time.Duration { return time.Since(t.base) }

// dialData is client.Options.DialData: a plain TCP dial, timed and
// wrapped when the calling operation is traced.
func (t *tracer) dialData(ctx context.Context, addr string) (net.Conn, error) {
	ot, _ := ctx.Value(opKey{}).(*opTrace)
	if ot != nil && ot.dialStart == 0 {
		ot.dialStart = t.now()
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil || ot == nil {
		return conn, err
	}
	if ot.dialEnd == 0 {
		ot.dialEnd = t.now()
	}
	return &dataConn{Conn: conn, t: t, ot: ot}, nil
}

// dataConn times the first response byte and the close of a bulk read
// stream. One goroutine owns it (the client reads a segment on the
// goroutine that dialed), so the record needs no lock.
type dataConn struct {
	net.Conn
	t  *tracer
	ot *opTrace
}

func (c *dataConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		if c.ot.firstByte == 0 {
			c.ot.firstByte = c.t.now()
		}
		c.ot.dataBytes += n
	}
	return n, err
}

func (c *dataConn) Close() error {
	c.ot.close = c.t.now()
	return c.Conn.Close()
}

// dialControl is client.Options.DialControl: the session the rpc pool
// would have opened, over a connection that logs when frames leave and
// arrive.
func (t *tracer) dialControl(ctx context.Context, addr string) (*wire.Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return wire.NewClient(&ctlConn{Conn: conn, t: t, addr: addr}), nil
}

type ctlConn struct {
	net.Conn
	t    *tracer
	addr string
}

func (c *ctlConn) log(write bool, at time.Duration, n int) {
	if n <= 0 || c.t.cur.Load() == nil {
		return
	}
	c.t.mu.Lock()
	if ot := c.t.cur.Load(); ot != nil {
		ot.ctl = append(ot.ctl, ctlEvent{at: at, addr: c.addr, write: write, n: n})
	}
	c.t.mu.Unlock()
}

// Write is stamped before the bytes leave: a round trip starts when the
// request is handed to the kernel.
func (c *ctlConn) Write(p []byte) (int, error) {
	at := c.t.now()
	n, err := c.Conn.Write(p)
	c.log(true, at, n)
	return n, err
}

// Read is stamped after the bytes arrive: a round trip ends when the
// last response byte is in hand.
func (c *ctlConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.log(false, c.t.now(), n)
	return n, err
}

// begin starts a traced operation. attributeControl says whether control
// traffic may be attributed to it (see tracer.cur).
func (t *tracer) begin(attributeControl bool) *opTrace {
	ot := &opTrace{start: t.now()}
	if attributeControl {
		t.cur.Store(ot)
	}
	return ot
}

func (t *tracer) finish(ot *opTrace) {
	ot.end = t.now()
	if t.cur.Load() == ot {
		t.mu.Lock()
		t.cur.Store(nil)
		t.mu.Unlock()
	}
}

// rpcSpans folds the control events of one operation into round trips:
// on each address a run of writes opens one, the reads that follow end
// it, and the next write opens the next. us maps a clock reading to the
// op's timeline.
func (t *tracer) rpcSpans(ot *opTrace, us func(time.Duration) float64) []*Span {
	type open struct {
		span    *Span
		sawRead bool
	}
	live := make(map[string]*open)
	var out []*Span
	for _, ev := range ot.ctl {
		o := live[ev.addr]
		if ev.write {
			if o == nil || o.sawRead {
				layer := t.layerOf[ev.addr]
				if layer == "" {
					layer = "unknown"
				}
				o = &open{span: &Span{Name: layer + ".rpc", StartUs: us(ev.at), EndUs: us(ev.at)}}
				live[ev.addr] = o
				out = append(out, o.span)
			}
			o.span.Bytes += ev.n
			continue
		}
		if o == nil {
			continue // a reply to a request sent before the op began
		}
		o.sawRead = true
		o.span.EndUs = us(ev.at)
	}
	return out
}

// appendPayloadMin is the request size above which a dataserver round
// trip is the bulk append itself rather than a control exchange.
const appendPayloadMin = 64 << 10

// tree assembles the span tree of a finished operation, its times scaled
// to the reference machine when the op was calibrated (speed > 0).
func (t *tracer) tree(ot *opTrace, kind string, speed time.Duration) *Span {
	us := func(d time.Duration) float64 { return float64(norm(d-ot.start, speed)) / float64(time.Microsecond) }
	root := &Span{Name: kind, EndUs: us(ot.end)}
	rpcs := t.rpcSpans(ot, us)

	// The bulk phase: a data connection's life for reads, the
	// payload-carrying round trip for appends.
	var bulk []*Span
	if ot.dialStart != 0 && ot.close != 0 {
		first := ot.firstByte
		if first == 0 {
			first = ot.close
		}
		bulk = []*Span{
			{Name: "dataserver.connect", StartUs: us(ot.dialStart), EndUs: us(ot.dialEnd)},
			{Name: "dataserver.ttfb", StartUs: us(ot.dialEnd), EndUs: us(first)},
			{Name: "dataserver.transfer", StartUs: us(first), EndUs: us(ot.close), Bytes: ot.dataBytes},
		}
	} else {
		for i, s := range rpcs {
			if s.Name == "dataserver.rpc" && s.Bytes >= appendPayloadMin {
				s.Name = "dataserver.append"
				bulk = []*Span{s}
				rpcs = append(rpcs[:i:i], rpcs[i+1:]...)
				break
			}
		}
	}
	if len(bulk) == 0 {
		// Nothing observed on the wire (control attribution off and no
		// bulk dial): the op is a leaf.
		root.Children = rpcs
		finishSelf(root)
		return root
	}
	bulkStart, bulkEnd := bulk[0].StartUs, bulk[len(bulk)-1].EndUs
	pre := &Span{Name: "client.pre_data", StartUs: 0, EndUs: bulkStart}
	post := &Span{Name: "client.post_data", StartUs: bulkEnd, EndUs: root.EndUs}
	for _, s := range rpcs {
		switch {
		case s.EndUs <= bulkStart:
			pre.Children = append(pre.Children, s)
		case s.StartUs >= bulkEnd:
			post.Children = append(post.Children, s)
		}
		// A control exchange overlapping the bulk phase would break the
		// no-overlap rule; none exists on today's paths, and dropping it
		// leaves its time in the bulk span's self time.
	}
	root.Children = append(append([]*Span{pre}, bulk...), post)
	finishSelf(root)
	return root
}

// finishSelf fills SelfUs bottom-up.
func finishSelf(s *Span) {
	covered := 0.0
	for _, c := range s.Children {
		finishSelf(c)
		covered += c.DurUs()
	}
	s.SelfUs = s.DurUs() - covered
}
