package wire

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

type echoArgs struct {
	Msg string `json:"msg"`
}

type echoReply struct {
	Msg string `json:"msg"`
}

// startServer runs a server with an echo, fail, and slow method.
func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(t)
	return s, serve(t, s, ln)
}

// newServer registers startServer's methods on a server not yet serving.
func newServer(t *testing.T) *Server {
	t.Helper()
	s := NewServer()
	mustRegister(t, s, "echo", func(ctx context.Context, params json.RawMessage) (any, error) {
		var a echoArgs
		if err := json.Unmarshal(params, &a); err != nil {
			return nil, err
		}
		return echoReply{Msg: a.Msg}, nil
	})
	mustRegister(t, s, "fail", func(ctx context.Context, params json.RawMessage) (any, error) {
		return nil, errors.New("boom")
	})
	mustRegister(t, s, "slow", func(ctx context.Context, params json.RawMessage) (any, error) {
		select {
		case <-time.After(5 * time.Second):
			return echoReply{Msg: "late"}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	mustRegister(t, s, "void", func(ctx context.Context, params json.RawMessage) (any, error) {
		return nil, nil
	})
	return s
}

// serve runs s on ln until the test ends and returns its address.
func serve(t *testing.T, s *Server, ln net.Listener) string {
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	return ln.Addr().String()
}

func mustRegister(t *testing.T, s *Server, method string, h Handler) {
	t.Helper()
	if err := s.Register(method, h); err != nil {
		t.Fatalf("Register(%s): %v", method, err)
	}
}

func dial(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := DialContext(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestCallRoundTrip(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)

	var reply echoReply
	if err := c.Call(context.Background(), "echo", echoArgs{Msg: "hello"}, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Msg != "hello" {
		t.Errorf("reply = %q, want %q", reply.Msg, "hello")
	}
}

func TestCallRemoteError(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)

	err := c.Call(context.Background(), "fail", nil, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RemoteError", err)
	}
	if re.Method != "fail" || re.Msg != "boom" {
		t.Errorf("RemoteError = %+v", re)
	}
	if re.Error() == "" {
		t.Error("empty error string")
	}
}

func TestCallUnknownMethod(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	err := c.Call(context.Background(), "nope", nil, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RemoteError", err)
	}
}

func TestCallContextTimeout(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := c.Call(ctx, "slow", nil, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Error("timeout did not take effect promptly")
	}
	// The connection is still usable after a timed-out call.
	var reply echoReply
	if err := c.Call(context.Background(), "echo", echoArgs{Msg: "still alive"}, &reply); err != nil {
		t.Fatalf("call after timeout: %v", err)
	}
}

func TestVoidResult(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	if err := c.Call(context.Background(), "void", nil, nil); err != nil {
		t.Fatal(err)
	}
	// Requesting a result from a void method is an error.
	var reply echoReply
	if err := c.Call(context.Background(), "void", nil, &reply); err == nil {
		t.Error("expected error decoding empty result")
	}
}

func TestConcurrentCalls(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			msg := fmt.Sprintf("msg-%d", i)
			var reply echoReply
			if err := c.Call(context.Background(), "echo", echoArgs{Msg: msg}, &reply); err != nil {
				errs <- err
				return
			}
			if reply.Msg != msg {
				errs <- fmt.Errorf("got %q, want %q", reply.Msg, msg)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestServerCloseFailsPendingCalls(t *testing.T) {
	s, addr := startServer(t)
	c := dial(t, addr)

	done := make(chan error, 1)
	go func() {
		done <- c.Call(context.Background(), "slow", nil, nil)
	}()
	time.Sleep(50 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Error("pending call succeeded after server close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending call hung after server close")
	}
}

func TestClientCloseRejectsCalls(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if err := c.Call(context.Background(), "echo", echoArgs{}, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Call after close = %v, want ErrClosed", err)
	}
}

func TestRegisterValidation(t *testing.T) {
	s := NewServer()
	if err := s.Register("", func(context.Context, json.RawMessage) (any, error) { return nil, nil }); err == nil {
		t.Error("empty method accepted")
	}
	if err := s.Register("m", nil); err == nil {
		t.Error("nil handler accepted")
	}
	mustRegister(t, s, "m", func(context.Context, json.RawMessage) (any, error) { return nil, nil })
	if err := s.Register("m", func(context.Context, json.RawMessage) (any, error) { return nil, nil }); err == nil {
		t.Error("duplicate method accepted")
	}
}

func TestServeAfterClose(t *testing.T) {
	s := NewServer()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := s.Serve(ln); !errors.Is(err, ErrClosed) {
		t.Errorf("Serve after close = %v, want ErrClosed", err)
	}
}

func TestServerAddr(t *testing.T) {
	s := NewServer()
	if s.Addr() != nil {
		t.Error("Addr before Serve should be nil")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer s.Close()
	deadline := time.Now().Add(2 * time.Second)
	for s.Addr() == nil && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if s.Addr() == nil {
		t.Error("Addr not set while serving")
	}
}

func TestLargePayload(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte('a' + i%26)
	}
	var reply echoReply
	if err := c.Call(context.Background(), "echo", echoArgs{Msg: string(big)}, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Msg != string(big) {
		t.Error("large payload corrupted")
	}
}
