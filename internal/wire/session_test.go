package wire

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// TestRegisterAfterServe: the handler table is frozen once Serve starts —
// late registration is an error, not a silent data race with dispatch.
func TestRegisterAfterServe(t *testing.T) {
	s := NewServer()
	mustRegister(t, s, "early", func(context.Context, json.RawMessage) (any, error) { return nil, nil })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln) //nolint:errcheck // Serve returns on Close
	defer s.Close()
	deadline := time.Now().Add(2 * time.Second)
	for s.Addr() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := s.Register("late", func(context.Context, json.RawMessage) (any, error) { return nil, nil }); err == nil {
		t.Fatal("Register after Serve succeeded")
	}
}

// TestDeadlinePropagatesToHandler: the client's context deadline rides
// the request frame and bounds the handler's context server-side, so a
// handler that honours ctx stops within the caller's budget even though
// the server itself set no timeout.
func TestDeadlinePropagatesToHandler(t *testing.T) {
	sawDeadline := make(chan time.Duration, 1)
	s := NewServer()
	mustRegister(t, s, "probe", func(ctx context.Context, _ json.RawMessage) (any, error) {
		dl, ok := ctx.Deadline()
		if !ok {
			sawDeadline <- -1
			return nil, nil
		}
		sawDeadline <- time.Until(dl)
		return nil, nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln) //nolint:errcheck // Serve returns on Close
	defer s.Close()
	c := dial(t, ln.Addr().String())

	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	if err := c.Call(ctx, "probe", nil, nil); err != nil {
		t.Fatal(err)
	}
	rem := <-sawDeadline
	if rem < 0 {
		t.Fatal("handler context carried no deadline")
	}
	if rem > 500*time.Millisecond {
		t.Fatalf("handler deadline %v exceeds the caller's 500ms budget", rem)
	}
}

// TestNoDeadlineMeansNoHandlerDeadline: a call without a deadline must
// not invent one server-side.
func TestNoDeadlineMeansNoHandlerDeadline(t *testing.T) {
	hadDeadline := make(chan bool, 1)
	s := NewServer()
	mustRegister(t, s, "probe", func(ctx context.Context, _ json.RawMessage) (any, error) {
		_, ok := ctx.Deadline()
		hadDeadline <- ok
		return nil, nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln) //nolint:errcheck // Serve returns on Close
	defer s.Close()
	c := dial(t, ln.Addr().String())
	if err := c.Call(context.Background(), "probe", nil, nil); err != nil {
		t.Fatal(err)
	}
	if <-hadDeadline {
		t.Fatal("handler context had a deadline for a deadline-free call")
	}
}

// TestDeadlineStopsHandlerServerSide: a handler that blocks past the
// caller's deadline is cancelled by the server's own clock — the
// propagated budget, not just client-side abandonment, bounds the work.
func TestDeadlineStopsHandlerServerSide(t *testing.T) {
	stopped := make(chan error, 1)
	s := NewServer()
	mustRegister(t, s, "block", func(ctx context.Context, _ json.RawMessage) (any, error) {
		select {
		case <-ctx.Done():
			stopped <- ctx.Err()
			return nil, ctx.Err()
		case <-time.After(10 * time.Second):
			stopped <- nil
			return nil, nil
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln) //nolint:errcheck // Serve returns on Close
	defer s.Close()
	c := dial(t, ln.Addr().String())

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := c.Call(ctx, "block", nil, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Call err = %v, want DeadlineExceeded", err)
	}
	select {
	case err := <-stopped:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("handler observed %v, want DeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handler never stopped")
	}
}

// TestCancelFrameStopsHandler: abandoning a deadline-free call sends a
// cancel frame that cancels the in-flight handler's context — the server
// stops doing work whose result nobody will read.
func TestCancelFrameStopsHandler(t *testing.T) {
	entered := make(chan struct{}, 1)
	stopped := make(chan error, 1)
	s := NewServer()
	mustRegister(t, s, "hang", func(ctx context.Context, _ json.RawMessage) (any, error) {
		entered <- struct{}{}
		select {
		case <-ctx.Done():
			stopped <- ctx.Err()
		case <-time.After(10 * time.Second):
			stopped <- nil
		}
		return nil, nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln) //nolint:errcheck // Serve returns on Close
	defer s.Close()
	c := dial(t, ln.Addr().String())

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- c.Call(ctx, "hang", nil, nil) }()
	<-entered
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("Call err = %v, want Canceled", err)
	}
	select {
	case err := <-stopped:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("handler observed %v, want Canceled (cancel frame)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel frame did not stop the handler")
	}
}

// TestUnsentErrorMarksSafeRetries: failures from before the request could
// have reached the wire wrap *UnsentError; a response that made it back
// never does.
func TestUnsentErrorMarksSafeRetries(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	err := c.Call(context.Background(), "echo", echoArgs{Msg: "x"}, nil)
	var ue *UnsentError
	if !errors.As(err, &ue) {
		t.Fatalf("call on closed client = %v, want *UnsentError", err)
	}
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("UnsentError does not unwrap to ErrClosed: %v", err)
	}

	// A remote application error is NOT an UnsentError — the handler ran.
	c2 := dial(t, addr)
	err = c2.Call(context.Background(), "fail", nil, nil)
	if errors.As(err, &ue) {
		t.Fatalf("remote error wrapped as UnsentError: %v", err)
	}
}

// lateConn delivers its first writes late: each of them waits delay.
type lateConn struct {
	net.Conn
	late  atomic.Int32
	delay time.Duration
}

func (c *lateConn) Write(p []byte) (int, error) {
	if c.late.Add(-1) >= 0 {
		time.Sleep(c.delay)
	}
	return c.Conn.Write(p)
}

// TestDelayedRequestEndsByItsDeadline: a request that reaches the server
// late starts its propagated deadline late, after the caller's has
// fired. Abandoned by that deadline, the caller sends no cancel frame, so
// the handler still ends by its deadline, DeadlineExceeded, rather than
// by a cancel overtaking it with Canceled.
func TestDelayedRequestEndsByItsDeadline(t *testing.T) {
	stopped := make(chan error, 1)
	s := NewServer()
	mustRegister(t, s, "block", func(ctx context.Context, _ json.RawMessage) (any, error) {
		<-ctx.Done()
		stopped <- ctx.Err()
		return nil, ctx.Err()
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", serve(t, s, ln))
	if err != nil {
		t.Fatal(err)
	}
	lc := &lateConn{Conn: conn, delay: 5 * time.Millisecond}
	lc.late.Store(2) // the request's length prefix and the rest of it
	c := NewClient(lc)
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := c.Call(ctx, "block", nil, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Call err = %v, want DeadlineExceeded", err)
	}
	select {
	case err := <-stopped:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("handler observed %v, want DeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handler never stopped")
	}
}
