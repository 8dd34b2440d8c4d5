package client

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/flowserver"
	"github.com/mayflower-dfs/mayflower/internal/wire"
)

// releaseState reports the state ("select", "sleep", ...) of the goroutine
// whose lone release is in sequence, or "" if none is.
func releaseState() string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("(*Client).sequence")) && bytes.Contains(g, []byte("(*RPCClient).Finished")) {
			head, _, _ := bytes.Cut(g, []byte("\n"))
			_, state, _ := bytes.Cut(head, []byte("["))
			state, _, _ = bytes.Cut(state, []byte("]"))
			state, _, _ = bytes.Cut(state, []byte(","))
			return string(state)
		}
	}
	return ""
}

// TestLoneReleaseWaitsForTheCallInFlight: with a fake Flowserver holding
// one fs.Select, a lone release (fs.Finished) leaves only after that call
// returns, and waits parked for it, not polling in a sleep loop.
func TestLoneReleaseWaitsForTheCallInFlight(t *testing.T) {
	var mu sync.Mutex
	var order []string
	entered, hold := make(chan struct{}), make(chan struct{})
	srv := wire.NewServer()
	if err := srv.Register(string(flowserver.MethodSelect), func(context.Context, json.RawMessage) (any, error) {
		close(entered)
		<-hold
		mu.Lock()
		order = append(order, "select")
		mu.Unlock()
		return []flowserver.AssignmentDTO{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Register(string(flowserver.MethodFinished), func(context.Context, json.RawMessage) (any, error) {
		mu.Lock()
		order = append(order, "finished")
		mu.Unlock()
		return struct{}{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	var unhold sync.Once
	defer unhold.Do(func() { close(hold) }) // a failure must not leave Close waiting on the handler

	c, err := New(Options{NameserverAddr: ln.Addr().String()}) // only dialled
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stub := flowserver.NewRPCClient(c.pool.Peer(ln.Addr().String()))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	selected := make(chan error, 1)
	go func() {
		_, err := stub.Select(ctx, flowserver.SelectArgs{ClientHost: "h", ReplicaHosts: []string{"r"}, Bits: 8})
		selected <- err
	}()
	<-entered
	released := make(chan error, 1)
	go func() { released <- stub.Finished(ctx, 7) }()

	for range 20 {
		if releaseState() == "sleep" {
			t.Fatal("the waiting release sleeps in a loop")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-released:
		t.Fatalf("the release returned (%v) while the Select was held", err)
	default:
	}
	unhold.Do(func() { close(hold) })
	if err := <-selected; err != nil {
		t.Fatal(err)
	}
	if err := <-released; err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []string{"select", "finished"}; !slices.Equal(order, want) {
		t.Errorf("the fake Flowserver saw %v, want %v", order, want)
	}
}
