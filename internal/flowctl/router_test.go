package flowctl

import (
	"context"
	"errors"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/flowserver"
	"github.com/mayflower-dfs/mayflower/internal/rpc"
	"github.com/mayflower-dfs/mayflower/internal/topology"
	"github.com/mayflower-dfs/mayflower/internal/wire"
)

// Sleep completes fakeClock as a fabric.Clock; the router never sleeps.
func (c *fakeClock) Sleep(float64) {}

// serveWire serves what register installs on a loopback wire server and
// returns its address.
func serveWire(t *testing.T, register func(*wire.Server) error) string {
	t.Helper()
	srv := wire.NewServer()
	if err := register(srv); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // Serve returns on Close
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// markedShard serves fs.Select returning a fixed marker, so a test can
// tell which shard a Select landed on. A failing shard errors instead.
func markedShard(t *testing.T, marker string, fail bool) string {
	return serveWire(t, func(srv *wire.Server) error {
		return flowserver.MethodSelect.Handle(srv, func(context.Context, flowserver.SelectArgs) ([]flowserver.AssignmentDTO, error) {
			if fail {
				return nil, errors.New("shard is down")
			}
			return []flowserver.AssignmentDTO{{ReplicaHost: marker}}, nil
		})
	})
}

// scriptedDirectory serves fd.Lookup from whatever answer the test last
// set, counting the lookups.
type scriptedDirectory struct {
	mu      sync.Mutex
	reply   LookupReply
	err     error
	lookups int
}

func (d *scriptedDirectory) set(reply LookupReply, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.reply, d.err = reply, err
}

func (d *scriptedDirectory) count() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lookups
}

func (d *scriptedDirectory) serve(t *testing.T) string {
	return serveWire(t, func(srv *wire.Server) error {
		return MethodLookup.Handle(srv, func(context.Context, LookupArgs) (LookupReply, error) {
			d.mu.Lock()
			defer d.mu.Unlock()
			d.lookups++
			return d.reply, d.err
		})
	})
}

// TestRouterRebinding is the directory re-routing contract both the
// client's Select path and the dataserver's relay planning rely on:
// which shard the next selection lands on after each directory answer.
// Every case starts bound to shard A under epoch 2 and lets the route
// TTL lapse on the fake clock before the next resolution.
func TestRouterRebinding(t *testing.T) {
	addrA := markedShard(t, "A", false)
	addrB := markedShard(t, "B", false)
	cases := []struct {
		name  string
		reply LookupReply
		err   error
		want  string
	}{
		// Ownership moved under a new epoch. Shard A keeps running — the
		// stale peer stays perfectly reachable, which is exactly the
		// hazard: it must not serve another Select.
		{"epoch bump rebinds", LookupReply{Shard: 1, Addr: addrB, Epoch: 3}, nil, "B"},
		{"stale lower epoch keeps the newer binding", LookupReply{Shard: 1, Addr: addrB, Epoch: 1}, nil, "A"},
		{"same epoch, new address: the shard re-registered", LookupReply{Shard: 0, Addr: addrB, Epoch: 2}, nil, "B"},
		{"same epoch, same address", LookupReply{Shard: 0, Addr: addrA, Epoch: 2}, nil, "A"},
		{"lookup failure keeps the cached route", LookupReply{}, errors.New("directory is down"), "A"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := &scriptedDirectory{}
			dir.set(LookupReply{Shard: 0, Addr: addrA, Epoch: 2}, nil)
			pool := rpc.NewPool(rpc.Options{})
			defer pool.Close()
			clock := &fakeClock{}
			r := NewRouter(pool, dir.serve(t), 1, 10*time.Second, clock)
			ctx := context.Background()
			selectVia := func() string {
				t.Helper()
				stub, err := r.stub(ctx)
				if err != nil {
					t.Fatal(err)
				}
				as, err := stub.Select(ctx, flowserver.SelectArgs{})
				if err != nil {
					t.Fatal(err)
				}
				return as[0].ReplicaHost
			}
			if got := selectVia(); got != "A" {
				t.Fatalf("first Select landed on %q, want A", got)
			}

			// Inside the TTL the route is reused without a directory round
			// trip, whatever the directory would now say.
			dir.set(tc.reply, tc.err)
			clock.t = 9
			if got := selectVia(); got != "A" || dir.count() != 1 {
				t.Fatalf("within the TTL: Select on %q after %d lookups, want A after 1", got, dir.count())
			}
			clock.t = 11
			if got := selectVia(); got != tc.want || dir.count() != 2 {
				t.Fatalf("after the TTL: Select on %q after %d lookups, want %s after 2", got, dir.count(), tc.want)
			}
		})
	}
}

// TestRouterNoRoute: with nothing cached a lookup failure is an error —
// the caller's cue to run degraded.
func TestRouterNoRoute(t *testing.T) {
	dir := &scriptedDirectory{}
	dir.set(LookupReply{}, errors.New("directory is down"))
	pool := rpc.NewPool(rpc.Options{})
	defer pool.Close()
	r := NewRouter(pool, dir.serve(t), 0, 0, &fakeClock{})
	if _, err := r.stub(context.Background()); err == nil {
		t.Fatal("resolved a route with nothing cached and no directory")
	}
}

// TestRouterDoRetriesOnce: a selection that fails against the cached
// shard drops the route, re-resolves inside the TTL, and lands on the
// promoted shard; when that fails too the error reaches the caller after
// exactly one retry.
func TestRouterDoRetriesOnce(t *testing.T) {
	dead := markedShard(t, "dead", true)
	live := markedShard(t, "live", false)
	dir := &scriptedDirectory{}
	dir.set(LookupReply{Shard: 1, Addr: dead, Epoch: 1}, nil)
	pool := rpc.NewPool(rpc.Options{})
	defer pool.Close()
	r := NewRouter(pool, dir.serve(t), 1, time.Hour, &fakeClock{})
	ctx := context.Background()
	if _, err := r.stub(ctx); err != nil {
		t.Fatal(err)
	}

	calls := 0
	sel := func(fs *flowserver.RPCClient) error {
		calls++
		_, err := fs.Select(ctx, flowserver.SelectArgs{})
		return err
	}
	dir.set(LookupReply{Shard: 0, Addr: live, Epoch: 2}, nil)
	stub, err := r.Do(ctx, sel)
	if err != nil || calls != 2 {
		t.Fatalf("Do = %v after %d calls, want success on the second", err, calls)
	}
	if as, err := stub.Select(ctx, flowserver.SelectArgs{}); err != nil || as[0].ReplicaHost != "live" {
		t.Fatalf("Do returned a stub for %v (%v), want the promoted shard", as, err)
	}

	dir.set(LookupReply{Shard: 1, Addr: dead, Epoch: 3}, nil)
	r.invalidate()
	calls = 0
	if _, err := r.Do(ctx, sel); err == nil || calls != 2 {
		t.Fatalf("Do = %v after %d calls, want the shard's error after 2", err, calls)
	}
}

// releaseLog is a shard that records every flow a release reached it
// for, riding a Select or alone.
type releaseLog struct {
	mu  sync.Mutex
	ids []flowserver.FlowID
}

func (l *releaseLog) add(ids ...flowserver.FlowID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ids = append(l.ids, ids...)
}

func (l *releaseLog) got() []flowserver.FlowID {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]flowserver.FlowID(nil), l.ids...)
}

func (l *releaseLog) serve(t *testing.T) string {
	return serveWire(t, func(srv *wire.Server) error {
		return errors.Join(
			flowserver.MethodSelect.Handle(srv, func(_ context.Context, a flowserver.SelectArgs) ([]flowserver.AssignmentDTO, error) {
				l.add(a.Done...)
				return nil, nil
			}),
			flowserver.MethodFinished.Handle(srv, func(_ context.Context, a flowserver.FinishedArgs) (struct{}, error) {
				l.add(a.FlowIDs...)
				return struct{}{}, nil
			}),
		)
	})
}

// TestRouterReboundStubDeliversToItsShard: releases queued on a stub stay
// with the shard that issued their flows. After the router rebinds to
// another shard, the new stub's Selects do not carry them, and Close
// still delivers them to the first shard.
func TestRouterReboundStubDeliversToItsShard(t *testing.T) {
	var a, b releaseLog
	dir := &scriptedDirectory{}
	dir.set(LookupReply{Shard: 0, Addr: a.serve(t), Epoch: 1}, nil)
	pool := rpc.NewPool(rpc.Options{})
	defer pool.Close()
	clock := &fakeClock{}
	r := NewRouter(pool, dir.serve(t), 0, time.Second, clock)
	ctx := context.Background()
	stubA, err := r.stub(ctx)
	if err != nil {
		t.Fatal(err)
	}
	stubA.Release(41)

	dir.set(LookupReply{Shard: 1, Addr: b.serve(t), Epoch: 2}, nil)
	clock.t = 2
	stubB, err := r.stub(ctx)
	if err != nil || stubB == stubA {
		t.Fatalf("no rebind after the epoch bump (err %v)", err)
	}
	if _, err := stubB.Select(ctx, flowserver.SelectArgs{}); err != nil {
		t.Fatal(err)
	}
	r.Close()
	if got := a.got(); len(got) != 1 || got[0] != 41 {
		t.Errorf("shard A received releases %v, want [41]", got)
	}
	if got := b.got(); len(got) != 0 {
		t.Errorf("shard B received releases %v for flows it never issued", got)
	}
}

// TestHeartbeatRPCReturnsOwners: fd.Heartbeat answers with the whole
// pod→shard map and its epoch, so after a failover the next heartbeat
// hands a shard the promoted map under the bumped epoch.
func TestHeartbeatRPCReturnsOwners(t *testing.T) {
	dir, err := NewDirectory(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	addr := serveWire(t, func(srv *wire.Server) error {
		return RegisterDirectoryRPC(srv, dir, func() float64 { return 0 })
	})
	pool := rpc.NewPool(rpc.Options{})
	defer pool.Close()
	dc := NewDirectoryClient(pool.Peer(addr))
	heartbeat := func(wantEpoch int64, wantOwners []int) {
		t.Helper()
		rep, err := dc.Heartbeat(context.Background(), 0, "shard-0", 60)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Epoch != wantEpoch || !slices.Equal(rep.Owners, wantOwners) {
			t.Errorf("Heartbeat = epoch %d owners %v, want epoch %d owners %v", rep.Epoch, rep.Owners, wantEpoch, wantOwners)
		}
	}
	heartbeat(1, []int{0, 1, 0, 1})
	if epoch, changed := dir.MarkDead(1); !changed || epoch != 2 {
		t.Fatalf("MarkDead(1) = (%d, %v), want (2, true)", epoch, changed)
	}
	heartbeat(2, []int{0, 0, 0, 0})
}

// TestCommitForeignRejectsMalformed: a ctl.Commit naming a link outside
// the topology or one link twice, or carrying a negative size or cap,
// is refused with an error before it reaches the model, and the shard
// process keeps serving.
func TestCommitForeignRejectsMalformed(t *testing.T) {
	topo := testTopo(t)
	shard := oneShard(t, topo)
	addr := serveWire(t, func(srv *wire.Server) error {
		return RegisterShardRPC(srv, shard, nil)
	})
	pool := rpc.NewPool(rpc.Options{})
	defer pool.Close()
	link := NewRPCShardLink(pool.Peer(addr), nil)
	path := topo.ShortestPaths(topo.HostAt(0, 0, 0), topo.HostAt(0, 1, 0))[0]
	for _, tc := range []struct {
		name        string
		links       topology.Path
		bits, capBw float64
	}{
		{"a link past the topology", topology.Path{1 << 20}, 8, 1},
		{"a negative link", topology.Path{-1}, 8, 1},
		{"one link twice", topology.Path{path[0], path[0]}, 8, 1},
		{"a negative size", path, -8, 1},
		{"a negative cap", path, 8, -1},
	} {
		if _, err := link.CommitForeign(7, tc.links, tc.bits, tc.capBw); err == nil {
			t.Errorf("a commit with %s was accepted", tc.name)
		}
	}
	if bw, err := link.CommitForeign(7, path, 8, 1); err != nil || bw != 1 {
		t.Fatalf("a well-formed commit = (%g, %v), want (1, nil)", bw, err)
	}
	if n := shard.Server().NumFlows(); n != 1 {
		t.Errorf("NumFlows = %d, want only the well-formed commit", n)
	}
}

// TestCommitForeignRejectsLinksNotOwned: a foreign commit naming a link
// of a pod the receiving shard does not own is refused, over a real wire
// server and through the in-process plane alike, and the receiver models
// nothing of it. Once a failover hands it the pod, the same commit lands.
func TestCommitForeignRejectsLinksNotOwned(t *testing.T) {
	topo := testTopo(t)
	plane, err := NewPlane(topo, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	receiver := plane.Shard(1) // owns pods 1 and 3
	addr := serveWire(t, func(srv *wire.Server) error {
		return RegisterShardRPC(srv, receiver, nil)
	})
	pool := rpc.NewPool(rpc.Options{})
	defer pool.Close()
	owned := topo.ShortestPaths(topo.HostAt(1, 0, 0), topo.HostAt(1, 1, 0))[0]
	foreign := topo.ShortestPaths(topo.HostAt(0, 0, 0), topo.HostAt(0, 1, 0))[0]
	links := []struct {
		name string
		link ShardLink
	}{
		{"ctl.Commit", NewRPCShardLink(pool.Peer(addr), nil)},
		{"the plane", planeLink{p: plane, target: 1}},
	}
	for _, l := range links {
		for _, path := range []topology.Path{foreign, {owned[0], foreign[0]}} {
			if _, err := l.link.CommitForeign(7, path, 8, 1); err == nil {
				t.Errorf("%s accepted links %v of pod 0 on shard 1", l.name, path)
			}
		}
	}
	receiver.Server().LinkLoads(func(link, flows int, _ float64) {
		t.Errorf("link %d models %d flow(s) after rejected commits", link, flows)
	})

	receiver.SetOwners([]int{1, 1, 0, 1}, 2)
	for i, l := range links {
		if _, err := l.link.CommitForeign(flowserver.FlowID(8+i), foreign, 8, 1); err != nil {
			t.Errorf("%s after the failover: %v", l.name, err)
		}
	}
}
