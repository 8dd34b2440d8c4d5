package wire

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// burstCalls is the burst size of the dispatch tests: four times
// maxParked, so a burst cannot be served by parked goroutines alone.
const burstCalls = 64

// dispatchServer serves "barrier", whose handlers each block until
// burstCalls of them are running at once (or their context ends), "ping",
// and "hold", whose handlers block until release is closed. The server is
// closed at cleanup unless the test closes it first.
type dispatchServer struct {
	*Server
	addr    string
	started atomic.Int32
	all     chan struct{} // closed once burstCalls barrier handlers run
	entered chan struct{} // one send per hold handler started
	release chan struct{}
}

func startDispatchServer(t *testing.T) *dispatchServer {
	t.Helper()
	d := &dispatchServer{
		Server:  NewServer(),
		all:     make(chan struct{}),
		entered: make(chan struct{}, burstCalls),
		release: make(chan struct{}),
	}
	mustRegister(t, d.Server, "barrier", func(ctx context.Context, _ json.RawMessage) (any, error) {
		if d.started.Add(1) == burstCalls {
			close(d.all)
		}
		select {
		case <-d.all:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	mustRegister(t, d.Server, "ping", func(context.Context, json.RawMessage) (any, error) { return nil, nil })
	mustRegister(t, d.Server, "hold", func(ctx context.Context, _ json.RawMessage) (any, error) {
		d.entered <- struct{}{}
		select {
		case <-d.release:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go d.Serve(ln) //nolint:errcheck // Serve returns on Close
	t.Cleanup(func() { d.Close() })
	d.addr = ln.Addr().String()
	return d
}

// burst makes burstCalls concurrent barrier calls and returns their
// errors once all have returned.
func burst(t *testing.T, c *Client) []error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	errs := make([]error, burstCalls)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.Call(ctx, "barrier", nil, nil)
		}()
	}
	wg.Wait()
	return errs
}

// waitFor polls cond until it holds or five seconds pass.
func waitFor(cond func() bool) bool {
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// TestDispatchRunsEveryCallConcurrently: burstCalls calls whose handlers
// each wait for all of them to have started all complete, so no call is
// ever queued behind a busy handler goroutine, parked ones included.
func TestDispatchRunsEveryCallConcurrently(t *testing.T) {
	d := startDispatchServer(t)
	c := dial(t, d.addr)
	for i, err := range burst(t, c) {
		if err != nil {
			t.Fatalf("call %d: %v (%d of %d handlers started)", i, err, d.started.Load(), burstCalls)
		}
	}
}

// TestDispatchParksAtMostMaxParked: after a burst, at most maxParked
// handler goroutines stay behind, and after Close none do.
func TestDispatchParksAtMostMaxParked(t *testing.T) {
	before := runtime.NumGoroutine()
	d := startDispatchServer(t)
	c := dial(t, d.addr)
	// Serve, connection and client reader: what stays up without calls.
	const fixed = 3
	for _, err := range burst(t, c) {
		if err != nil {
			t.Fatal(err)
		}
	}
	var extra int
	if !waitFor(func() bool {
		extra = runtime.NumGoroutine() - before - fixed
		return extra <= maxParked
	}) {
		t.Fatalf("%d goroutines left after the burst, want at most maxParked = %d", extra, maxParked)
	}
	if n := d.parked.Load(); n < 1 || n > maxParked {
		t.Errorf("%d goroutines parked, want 1..%d", n, maxParked)
	}
	c.Close()
	d.Close()
	if !waitFor(func() bool { return runtime.NumGoroutine() <= before }) {
		t.Errorf("%d goroutines left after Close, want none", runtime.NumGoroutine()-before)
	}
}

// TestCancelStopsReusedGoroutine: a cancel frame stops a handler that
// runs on a goroutine parked by an earlier call. A goroutine counts as
// parked just before it waits, so a call can miss it and start a new one;
// the test retries until a call lands on a parked goroutine.
func TestCancelStopsReusedGoroutine(t *testing.T) {
	d := startDispatchServer(t)
	c := dial(t, d.addr)
	if err := c.Call(context.Background(), "ping", nil, nil); err != nil {
		t.Fatal(err)
	}
	for attempt := 1; ; attempt++ {
		if !waitFor(func() bool { return d.parked.Load() >= 1 }) {
			t.Fatal("no goroutine parked after a call")
		}
		before := d.parked.Load()
		ctx, cancel := context.WithCancel(context.Background())
		errCh := make(chan error, 1)
		go func() { errCh <- c.Call(ctx, "hold", nil, nil) }()
		<-d.entered
		reused := d.parked.Load() < before
		cancel()
		if err := <-errCh; !errors.Is(err, context.Canceled) {
			t.Fatalf("Call error = %v, want context.Canceled", err)
		}
		// The handler saw its context end and returned without release
		// ever being closed, so its goroutine parks again.
		if !waitFor(func() bool { return d.parked.Load() >= before }) {
			t.Fatalf("the cancelled handler did not return: %d goroutines parked, want %d", d.parked.Load(), before)
		}
		if reused {
			return
		}
		if attempt == 10 {
			t.Fatal("no call in 10 landed on a parked goroutine")
		}
	}
}

// TestUnknownMethodAnsweredDuringCalls: a call to an unknown method is
// answered with its error while other calls on the connection run.
func TestUnknownMethodAnsweredDuringCalls(t *testing.T) {
	d := startDispatchServer(t)
	c := dial(t, d.addr)
	const holds = 8
	errCh := make(chan error, holds)
	for range holds {
		go func() { errCh <- c.Call(context.Background(), "hold", nil, nil) }()
	}
	for range holds {
		<-d.entered
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var re *RemoteError
	if err := c.Call(ctx, "nope", nil, nil); !errors.As(err, &re) || !strings.Contains(re.Msg, `unknown method "nope"`) {
		t.Errorf("unknown method: err = %v, want its RemoteError", err)
	}
	close(d.release)
	for range holds {
		if err := <-errCh; err != nil {
			t.Error(err)
		}
	}
}
