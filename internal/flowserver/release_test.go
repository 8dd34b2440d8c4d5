package flowserver_test

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/flowctl"
	"github.com/mayflower-dfs/mayflower/internal/flowserver"
	"github.com/mayflower-dfs/mayflower/internal/obs"
	"github.com/mayflower-dfs/mayflower/internal/rpc"
	"github.com/mayflower-dfs/mayflower/internal/topology"
	"github.com/mayflower-dfs/mayflower/internal/wire"
)

// recorder is a selection surface that records every retirement, in
// order, and fails selections on demand.
type recorder struct {
	mu       sync.Mutex
	finished []flowserver.FlowID
	fail     bool
	next     flowserver.FlowID
}

func (r *recorder) assign(replica topology.NodeID, bits float64) ([]flowserver.Assignment, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fail {
		return nil, errors.New("recorder: selection failed")
	}
	r.next++
	return []flowserver.Assignment{{FlowID: r.next, Replica: replica, Path: topology.Path{0}, Bits: bits, EstimatedBw: 1}}, nil
}

func (r *recorder) SelectReplicaAndPath(req flowserver.Request) ([]flowserver.Assignment, error) {
	return r.assign(req.Replicas[0], req.Bits)
}

func (r *recorder) SelectWritePipeline(_ topology.NodeID, targets []topology.NodeID, bits float64) ([]flowserver.Assignment, error) {
	return r.assign(targets[0], bits)
}

func (r *recorder) FlowFinished(id flowserver.FlowID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.finished = append(r.finished, id)
}

func (r *recorder) retired() []flowserver.FlowID {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.finished)
}

func (r *recorder) setFail(fail bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fail = fail
}

// releaseFixture serves a recorder with its one-shard directory and
// holds a stub on it whose calls are counted per method.
type releaseFixture struct {
	rec   *recorder
	addr  string
	pool  *rpc.Pool
	stub  *flowserver.RPCClient
	calls *obs.Registry
	read  flowserver.SelectArgs
	write flowserver.SelectWriteArgs
}

func newReleaseFixture(t *testing.T) *releaseFixture {
	t.Helper()
	topo, err := topology.New(topology.Config{
		Pods: 1, RacksPerPod: 1, HostsPerRack: 2, AggsPerPod: 1, Cores: 1,
		EdgeLinkBps: 1e9, EdgeAggLinkBps: 1e9, AggCoreLinkBps: 1e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := &releaseFixture{rec: &recorder{}, calls: obs.NewRegistry()}
	srv := wire.NewServer()
	dir, err := flowctl.NewDirectory(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(flowserver.RegisterRPC(srv, f.rec, topo, nil),
		flowctl.RegisterDirectoryRPC(srv, dir, func() float64 { return 0 })); err != nil {
		t.Fatal(err)
	}
	f.addr = listen(t, srv)
	if _, err := dir.Heartbeat(0, f.addr, 0, math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	f.pool = rpc.NewPool(rpc.Options{Intercept: []rpc.Interceptor{rpc.MethodMetrics(f.calls, "c")}})
	t.Cleanup(func() { f.pool.Close() })
	f.stub = flowserver.NewRPCClient(f.pool.Peer(f.addr))
	h0, h1 := topo.Node(topo.HostAt(0, 0, 0)).Name, topo.Node(topo.HostAt(0, 0, 1)).Name
	f.read = flowserver.SelectArgs{ClientHost: h0, ReplicaHosts: []string{h1}, Bits: 8}
	f.write = flowserver.SelectWriteArgs{SourceHost: h0, TargetHosts: []string{h1}, Bits: 8}
	return f
}

// listen serves srv on a loopback port until the test ends.
func listen(t testing.TB, srv *wire.Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // Serve returns on Close
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// countingCaller counts the calls it passes on.
type countingCaller struct {
	rpc.Caller
	calls atomic.Int64
}

func (c *countingCaller) Call(ctx context.Context, method string, args, reply any) error {
	c.calls.Add(1)
	return c.Caller.Call(ctx, method, args, reply)
}

// lone counts the fs.Finished calls the stub sent: releases that rode
// no selection.
func (f *releaseFixture) lone() int64 { return f.calls.Counter("c.method.fs.Finished.calls").Value() }

// waitRetired waits for the recorder to have retired want, in order.
func (f *releaseFixture) waitRetired(t *testing.T, want ...flowserver.FlowID) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !slices.Equal(f.rec.retired(), want); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("retired %v, want %v", f.rec.retired(), want)
		}
	}
}

// TestReleaseQueue is the table for a stub's releases: what they ride,
// when they leave alone, and what a failed selection does with them.
// What retiring a flow twice costs the testbed's switch tables and
// emunet is TestRetiringTwiceIsANoOp's, beside them.
func TestReleaseQueue(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"ids ride the next Select", func(t *testing.T) {
			f := newReleaseFixture(t)
			f.stub.Release(7, 8)
			if _, err := f.stub.Select(ctx, f.read); err != nil {
				t.Fatal(err)
			}
			if got := f.rec.retired(); !slices.Equal(got, []flowserver.FlowID{7, 8}) {
				t.Errorf("the Select retired %v, want [7 8]", got)
			}
			if n := f.lone(); n != 0 {
				t.Errorf("%d lone fs.Finished calls, want 0", n)
			}
		}},
		{"ids ride the next SelectWrite", func(t *testing.T) {
			f := newReleaseFixture(t)
			f.stub.Release(7)
			if _, err := f.stub.SelectWrite(ctx, f.write); err != nil {
				t.Fatal(err)
			}
			if got := f.rec.retired(); !slices.Equal(got, []flowserver.FlowID{7}) || f.lone() != 0 {
				t.Errorf("the SelectWrite retired %v after %d lone fs.Finished calls, want [7] after 0", got, f.lone())
			}
		}},
		{"the linger flush sends them alone", func(t *testing.T) {
			f := newReleaseFixture(t)
			f.stub.Release(7, 8)
			f.waitRetired(t, 7, 8)
			if n := f.lone(); n != 1 {
				t.Errorf("%d lone fs.Finished calls, want 1", n)
			}
		}},
		{"a flush sends the whole queue in one call", func(t *testing.T) {
			f := newReleaseFixture(t)
			cc := &countingCaller{Caller: f.pool.Peer(f.addr)}
			stub := flowserver.NewRPCClient(cc)
			stub.Release(1, 2, 3)
			stub.Flush() // or the linger's, if it fired first
			f.waitRetired(t, 1, 2, 3)
			if n := cc.calls.Load(); n != 1 {
				t.Errorf("flushing 3 releases made %d calls, want 1", n)
			}
		}},
		{"a failed Select re-queues", func(t *testing.T) {
			f := newReleaseFixture(t)
			f.rec.setFail(true)
			f.stub.Release(7)
			if _, err := f.stub.Select(ctx, f.read); err == nil {
				t.Fatal("a failing selection succeeded")
			}
			f.rec.setFail(false)
			if _, err := f.stub.Select(ctx, f.read); err != nil {
				t.Fatal(err)
			}
			// Once as the failed Select's Done, again from the queue: by
			// the next Select or, if the linger beat it, alone.
			f.waitRetired(t, 7, 7)
		}},
		{"Done is applied when the selection fails", func(t *testing.T) {
			f := newReleaseFixture(t)
			f.rec.setFail(true)
			f.stub.Release(7)
			if _, err := f.stub.Select(ctx, f.read); err == nil {
				t.Fatal("a failing selection succeeded")
			}
			// The re-queue arms the flush only once the Select returned, so
			// a first retirement is the Done the failed Select carried.
			if got := f.rec.retired(); len(got) == 0 || got[0] != 7 {
				t.Errorf("retired %v by the failed Select's return, want 7 first", got)
			}
		}},
		{"concurrent releases and selections lose and repeat nothing", func(t *testing.T) {
			f := newReleaseFixture(t)
			const workers, each = 4, 50
			var wg sync.WaitGroup
			for w := range workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range each {
						f.stub.Release(flowserver.FlowID(1000*w + i))
						if _, err := f.stub.Select(ctx, f.read); err != nil {
							t.Error(err)
						}
					}
				}()
			}
			wg.Wait()
			f.stub.Flush()
			got := f.rec.retired()
			slices.Sort(got)
			if len(got) != workers*each || len(slices.Compact(got)) != workers*each {
				t.Errorf("retired %d ids, %d distinct; want each of the %d released once", len(f.rec.retired()), len(got), workers*each)
			}
		}},
		{"Close flushes", func(t *testing.T) {
			f := newReleaseFixture(t)
			r := flowctl.NewRouter(f.pool, f.addr, 0, 0, nil)
			stub, err := r.Do(ctx, func(s *flowserver.RPCClient) error {
				_, err := s.Select(ctx, f.read)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			stub.Release(7)
			r.Close()
			if got := f.rec.retired(); !slices.Equal(got, []flowserver.FlowID{7}) {
				t.Errorf("retired %v when Close returned, want [7]", got)
			}
		}},
		{"a Select with an empty queue is the bare frame", func(t *testing.T) {
			frames := make(chan string, 1)
			srv := wire.NewServer()
			if err := srv.Register(string(flowserver.MethodSelect), func(_ context.Context, params json.RawMessage) (any, error) {
				frames <- string(params)
				return []flowserver.AssignmentDTO{}, nil
			}); err != nil {
				t.Fatal(err)
			}
			pool := rpc.NewPool(rpc.Options{})
			defer pool.Close()
			stub := flowserver.NewRPCClient(pool.Peer(listen(t, srv)))
			const bare = `{"clientHost":"h0","replicaHosts":["h1"],"bits":8}`
			for i, want := range []string{bare, `{"clientHost":"h0","replicaHosts":["h1"],"bits":8,"done":[7]}`, bare} {
				if i == 1 {
					stub.Release(7)
				}
				if _, err := stub.Select(ctx, flowserver.SelectArgs{ClientHost: "h0", ReplicaHosts: []string{"h1"}, Bits: 8}); err != nil {
					t.Fatal(err)
				}
				if got := <-frames; got != want {
					t.Errorf("Select %d sent %s, want %s", i, got, want)
				}
			}
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}
