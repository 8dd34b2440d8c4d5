package rpc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/obs"
	"github.com/mayflower-dfs/mayflower/internal/wire"
)

// testServer is a wire server with the conformance methods: echo, fail,
// and hang (blocks until release or ctx done, reporting what it saw).
type testServer struct {
	srv      *wire.Server
	addr     string
	hangs    chan error    // ctx.Err() observed by each hang handler on exit
	entered  chan struct{} // signalled when a hang handler starts
	release  chan struct{}
	echoed   atomic.Int64
	released sync.Once
}

func startTestServer(t testing.TB) *testServer {
	t.Helper()
	ts := &testServer{
		srv:     wire.NewServer(),
		hangs:   make(chan error, 16),
		entered: make(chan struct{}, 16),
		release: make(chan struct{}),
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(ts.srv.Register("echo", func(_ context.Context, p json.RawMessage) (any, error) {
		ts.echoed.Add(1)
		return p, nil
	}))
	must(ts.srv.Register("fail", func(context.Context, json.RawMessage) (any, error) {
		return nil, errors.New("boom")
	}))
	must(ts.srv.Register("attached", func(ctx context.Context, _ json.RawMessage) (any, error) {
		return len(wire.Attachment(ctx)), nil
	}))
	must(ts.srv.Register("hang", func(ctx context.Context, _ json.RawMessage) (any, error) {
		ts.entered <- struct{}{}
		select {
		case <-ctx.Done():
			ts.hangs <- ctx.Err()
			return nil, ctx.Err()
		case <-ts.release:
			ts.hangs <- nil
			return "released", nil
		}
	}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	must(err)
	go ts.srv.Serve(ln) //nolint:errcheck // Serve returns on Close
	ts.addr = ln.Addr().String()
	t.Cleanup(ts.Close)
	return ts
}

// Close stops the server first — hung handlers unwind via their
// connection-scoped ctx, so a mid-call shutdown never turns into a late
// success through the release channel.
func (ts *testServer) Close() {
	ts.srv.Close()
	ts.released.Do(func() { close(ts.release) })
}

func echoCall(ctx context.Context, c Caller) error {
	var out int
	if err := c.Call(ctx, "echo", 7, &out); err != nil {
		return err
	}
	if out != 7 {
		return fmt.Errorf("echo = %d, want 7", out)
	}
	return nil
}

// TestPeerSharesOneSession: concurrent calls through one peer multiplex
// over a single lazily-dialed connection — the dial generation is 1
// after any number of calls.
func TestPeerSharesOneSession(t *testing.T) {
	ts := startTestServer(t)
	p := NewPeer(ts.addr, Options{})
	defer p.Close()
	if p.Epoch() != 0 {
		t.Fatalf("epoch before first call = %d, want 0", p.Epoch())
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- echoCall(context.Background(), p)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if p.Epoch() != 1 {
		t.Fatalf("epoch after 32 concurrent calls = %d, want 1 shared dial", p.Epoch())
	}
}

// TestPeerReconnectsAcrossServerRestart: when the pooled session dies,
// the next call transparently re-dials (here via a Dial hook that
// follows the server's current address) and the epoch bumps so
// consumers can re-establish connection-scoped state.
func TestPeerReconnectsAcrossServerRestart(t *testing.T) {
	ts1 := startTestServer(t)
	var target atomic.Value
	target.Store(ts1.addr)

	reg := obs.NewRegistry()
	p := NewPeer("logical-ns", Options{
		Dial: func(ctx context.Context, _ string) (*wire.Client, error) {
			return DialSession(ctx, target.Load().(string))
		},
		Metrics: reg,
	})
	defer p.Close()

	if err := echoCall(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if p.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", p.Epoch())
	}

	// The server restarts elsewhere; the cached session is now dead.
	ts2 := startTestServer(t)
	target.Store(ts2.addr)
	ts1.Close()

	if err := echoCall(context.Background(), p); err != nil {
		t.Fatalf("call across restart: %v", err)
	}
	if p.Epoch() != 2 {
		t.Fatalf("epoch after restart = %d, want 2", p.Epoch())
	}
	snap := reg.Snapshot()
	if got := snap.Counters["rpc.peer.logical-ns.reconnects"]; got != 1 {
		t.Fatalf("reconnects counter = %d, want 1", got)
	}
}

// TestPostSendFailureIsNotRetried: a call whose request reached the wire
// before the connection died must NOT be transparently re-sent — the
// handler may have run and the method may not be idempotent.
func TestPostSendFailureIsNotRetried(t *testing.T) {
	ts := startTestServer(t)
	p := NewPeer(ts.addr, Options{})
	defer p.Close()

	errCh := make(chan error, 1)
	go func() { errCh <- p.Call(context.Background(), "hang", nil, nil) }()
	<-ts.entered
	// Kill the server mid-call: the request was sent, no response comes.
	ts.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("call survived server death")
		}
		var unsent *wire.UnsentError
		if errors.As(err, &unsent) {
			t.Fatalf("post-send failure classified as unsent: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call hung after server death")
	}
	// Exactly one hang handler ran: the reconnect budget did not replay
	// the request.
	if got := len(ts.entered); got != 0 {
		t.Fatalf("%d extra handler invocations after failure", got)
	}
}

// TestPeerDeadlineObservedServerSide: the caller's deadline travels
// through the session layer to the remote handler's context.
func TestPeerDeadlineObservedServerSide(t *testing.T) {
	ts := startTestServer(t)
	p := NewPeer(ts.addr, Options{})
	defer p.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := p.Call(ctx, "hang", nil, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	<-ts.entered
	select {
	case herr := <-ts.hangs:
		if !errors.Is(herr, context.DeadlineExceeded) {
			t.Fatalf("handler observed %v, want DeadlineExceeded", herr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handler did not observe the propagated deadline")
	}
}

// TestPeerCancelStopsHandlerAndSessionSurvives: abandoning a call
// cancels the in-flight handler server-side; the late (ignored) response
// does not poison the shared session — the next call reuses it.
func TestPeerCancelStopsHandlerAndSessionSurvives(t *testing.T) {
	ts := startTestServer(t)
	p := NewPeer(ts.addr, Options{})
	defer p.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- p.Call(ctx, "hang", nil, nil) }()
	<-ts.entered
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	select {
	case herr := <-ts.hangs:
		if !errors.Is(herr, context.Canceled) {
			t.Fatalf("handler observed %v, want Canceled (cancel frame)", herr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel frame did not stop the handler")
	}
	// Same session, still healthy.
	if err := echoCall(context.Background(), p); err != nil {
		t.Fatalf("call after abandoned call: %v", err)
	}
	if p.Epoch() != 1 {
		t.Fatalf("epoch = %d: the abandoned call cost a reconnect", p.Epoch())
	}
}

// TestConcurrentCallResetClose races calls against session resets and a
// final close — the contract is "clean error or success", never a panic
// or deadlock (run under -race).
func TestConcurrentCallResetClose(t *testing.T) {
	ts := startTestServer(t)
	p := NewPeer(ts.addr, Options{})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				err := echoCall(ctx, p)
				cancel()
				if err != nil && errors.Is(err, ErrClosed) {
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			p.Reset()
			time.Sleep(time.Millisecond)
		}
	}()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := echoCall(context.Background(), p); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after close = %v, want ErrClosed", err)
	}
	if err := p.Connect(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("connect after close = %v, want ErrClosed", err)
	}
}

// TestPoolSharedIdentityAndClose: one peer per address, shared by every
// lookup; Close fails future calls with ErrClosed, and lookups against a
// closed pool hand out closed peers instead of panicking.
func TestPoolSharedIdentityAndClose(t *testing.T) {
	ts := startTestServer(t)
	pl := NewPool(Options{})
	p1 := pl.Peer(ts.addr)
	p2 := pl.Peer(ts.addr)
	if p1 != p2 {
		t.Fatal("two lookups of one address produced distinct peers")
	}
	if err := echoCall(context.Background(), p1); err != nil {
		t.Fatal(err)
	}
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := echoCall(context.Background(), p1); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after pool close = %v, want ErrClosed", err)
	}
	if err := echoCall(context.Background(), pl.Peer("127.0.0.1:1")); !errors.Is(err, ErrClosed) {
		t.Fatalf("peer from closed pool = %v, want ErrClosed", err)
	}
}

// TestPoolResetForcesRedial: Reset severs every cached session; the next
// call dials fresh (chaos scenarios model control-plane partitions with
// this).
func TestPoolResetForcesRedial(t *testing.T) {
	ts := startTestServer(t)
	pl := NewPool(Options{})
	defer pl.Close()
	p := pl.Peer(ts.addr)
	if err := echoCall(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	pl.Reset()
	if err := echoCall(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if p.Epoch() != 2 {
		t.Fatalf("epoch after reset = %d, want 2", p.Epoch())
	}
}

// TestPeerMetrics: the built-in interceptor publishes per-peer counters
// and the inflight gauge under "<prefix>.peer.<addr>.*".
func TestPeerMetrics(t *testing.T) {
	ts := startTestServer(t)
	reg := obs.NewRegistry()
	p := NewPeer(ts.addr, Options{Metrics: reg, MetricsPrefix: "client.rpc"})
	defer p.Close()

	if err := echoCall(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if err := p.Call(context.Background(), "fail", nil, nil); err == nil {
		t.Fatal("fail call succeeded")
	}
	snap := reg.Snapshot()
	base := "client.rpc.peer." + ts.addr + "."
	if got := snap.Counters[base+"calls"]; got != 2 {
		t.Errorf("calls = %d, want 2", got)
	}
	if got := snap.Counters[base+"errors"]; got != 1 {
		t.Errorf("errors = %d, want 1", got)
	}
	if got, ok := snap.Gauges[base+"inflight"]; !ok || got != 0 {
		t.Errorf("inflight = %v (present %v), want 0 after calls drain", got, ok)
	}
}

// TestInterceptorChainOrder: Options.Intercept wraps outermost-first and
// receives the peer's address.
func TestInterceptorChainOrder(t *testing.T) {
	ts := startTestServer(t)
	var order []string
	mk := func(name string) Interceptor {
		return func(addr string, next CallFunc) CallFunc {
			if addr != ts.addr {
				t.Errorf("interceptor %s saw addr %q, want %q", name, addr, ts.addr)
			}
			return func(ctx context.Context, method string, args, reply any) error {
				order = append(order, name)
				return next(ctx, method, args, reply)
			}
		}
	}
	p := NewPeer(ts.addr, Options{Intercept: []Interceptor{mk("outer"), mk("inner")}})
	defer p.Close()
	if err := echoCall(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "outer" || order[1] != "inner" {
		t.Fatalf("interceptor order = %v, want [outer inner]", order)
	}
}

// TestConnectFailsFast: Connect against a dead address surfaces the
// error immediately, bounded by the configured connect timeout.
func TestConnectFailsFast(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens here anymore
	p := NewPeer(addr, Options{ConnectTimeout: 200 * time.Millisecond})
	defer p.Close()
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := p.Connect(ctx); err == nil {
		t.Fatal("connect to dead address succeeded")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("connect took %v, want bounded by the connect timeout", d)
	}
}
