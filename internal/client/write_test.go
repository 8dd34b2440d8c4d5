package client

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/dataserver"
	"github.com/mayflower-dfs/mayflower/internal/kvstore"
	"github.com/mayflower-dfs/mayflower/internal/nameserver"
	"github.com/mayflower-dfs/mayflower/internal/wire"
)

// fakeDS is a scriptable dataserver control endpoint: Prepare always
// succeeds and Append runs the test's handler, recording every sequence
// number it sees. It lets the write tests force failures at exact pieces
// without real storage.
type fakeDS struct {
	addr string

	mu    sync.Mutex
	calls int
	seqs  []uint64
}

func startFakeDS(t *testing.T, appendFn func(call int, a dataserver.AppendArgs) (dataserver.AppendReply, error)) *fakeDS {
	t.Helper()
	f := &fakeDS{}
	srv := wire.NewServer()
	err := errors.Join(
		dataserver.MethodPrepare.Handle(srv, func(context.Context, dataserver.PrepareArgs) (struct{}, error) {
			return struct{}{}, nil
		}),
		dataserver.MethodAppend.Handle(srv, func(_ context.Context, a dataserver.AppendArgs) (dataserver.AppendReply, error) {
			f.mu.Lock()
			f.calls++
			call := f.calls
			f.seqs = append(f.seqs, a.Seq)
			f.mu.Unlock()
			return appendFn(call, a)
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	f.addr = ln.Addr().String()
	return f
}

func (f *fakeDS) stats() (int, []uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls, append([]uint64(nil), f.seqs...)
}

// startFakeNS boots a real nameserver whose Service handle the test can
// drive directly (to register fake dataservers and simulate repair).
func startFakeNS(t *testing.T) (*nameserver.Service, string) {
	t.Helper()
	store, err := kvstore.Open(t.TempDir(), kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	svc, err := nameserver.NewService(store, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer()
	if err := nameserver.RegisterRPC(srv, svc); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return svc, ln.Addr().String()
}

func registerFake(t *testing.T, svc *nameserver.Service, id, host, addr string) {
	t.Helper()
	if err := svc.RegisterServer(nameserver.ServerInfo{
		ID: id, ControlAddr: addr, DataAddr: addr, Host: host,
	}); err != nil {
		t.Fatal(err)
	}
}

func newWriteClient(t *testing.T, nsAddr string, mutate func(*Options)) *Client {
	t.Helper()
	opts := Options{
		NameserverAddr: nsAddr,
		Rand:           rand.New(rand.NewSource(5)),
		RetryBackoff:   time.Millisecond,
	}
	if mutate != nil {
		mutate(&opts)
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestAppendMidPieceFailureReturnsLastAcked pins the documented contract
// for a multi-piece append that dies mid-stream: the returned size is the
// size as of the last acknowledged piece, with a non-nil error — here the
// failure hits piece 2 of 3, so exactly one 4-byte piece is durable.
func TestAppendMidPieceFailureReturnsLastAcked(t *testing.T) {
	svc, nsAddr := startFakeNS(t)
	boom := errors.New("disk on fire")
	fake := startFakeDS(t, func(call int, a dataserver.AppendArgs) (dataserver.AppendReply, error) {
		if call == 1 {
			return dataserver.AppendReply{SizeBytes: int64(len(a.Data))}, nil
		}
		return dataserver.AppendReply{}, boom
	})
	for i, id := range []string{"p", "s1", "s2"} {
		registerFake(t, svc, id, []string{"h0", "h1", "h2"}[i], fake.addr)
	}
	c := newWriteClient(t, nsAddr, func(o *Options) {
		o.WriteRetries = 1
		o.AppendPieceBytes = 4
	})
	ctx := context.Background()
	if _, err := c.Create(ctx, "f", nameserver.CreateOptions{
		ChunkSize: 64, PreferredReplicas: []string{"p", "s1", "s2"},
	}); err != nil {
		t.Fatal(err)
	}

	size, err := c.Append(ctx, "f", []byte("0123456789ab")) // pieces 4+4+4
	if err == nil {
		t.Fatal("mid-stream append failure returned nil error")
	}
	if size != 4 {
		t.Errorf("size = %d, want 4 (last acknowledged piece)", size)
	}
	if calls, _ := fake.stats(); calls != 2 {
		t.Errorf("append RPCs = %d, want 2 (no retries configured)", calls)
	}
}

// TestAppendRetrySameSeq checks a retried piece is re-sent under the same
// nonzero sequence number, which is what lets the dataserver deduplicate
// a re-send after a lost ack.
func TestAppendRetrySameSeq(t *testing.T) {
	svc, nsAddr := startFakeNS(t)
	fake := startFakeDS(t, func(call int, a dataserver.AppendArgs) (dataserver.AppendReply, error) {
		if call == 1 {
			return dataserver.AppendReply{}, errors.New("ack lost")
		}
		return dataserver.AppendReply{SizeBytes: int64(len(a.Data))}, nil
	})
	for i, id := range []string{"p", "s1", "s2"} {
		registerFake(t, svc, id, []string{"h0", "h1", "h2"}[i], fake.addr)
	}
	c := newWriteClient(t, nsAddr, nil)
	ctx := context.Background()
	if _, err := c.Create(ctx, "f", nameserver.CreateOptions{
		ChunkSize: 64, PreferredReplicas: []string{"p", "s1", "s2"},
	}); err != nil {
		t.Fatal(err)
	}

	size, err := c.Append(ctx, "f", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if size != 5 {
		t.Errorf("size = %d, want 5", size)
	}
	_, seqs := fake.stats()
	if len(seqs) != 2 {
		t.Fatalf("append RPCs = %d, want 2", len(seqs))
	}
	if seqs[0] == 0 {
		t.Error("piece sent with zero sequence number")
	}
	if seqs[0] != seqs[1] {
		t.Errorf("retry changed sequence number: %d then %d", seqs[0], seqs[1])
	}
	if got := c.met.writeFailoverPasses.Value(); got != 1 {
		t.Errorf("writeFailoverPasses = %d, want 1", got)
	}
}

// TestAppendErrorInvalidatesCache is the regression test for the append
// error path forgetting to drop the cached file metadata: a failed append
// must invalidate the cache so the next operation re-resolves the replica
// set instead of re-dialing a dead primary for the whole TTL.
func TestAppendErrorInvalidatesCache(t *testing.T) {
	svc, nsAddr := startFakeNS(t)
	fake := startFakeDS(t, func(int, dataserver.AppendArgs) (dataserver.AppendReply, error) {
		return dataserver.AppendReply{}, errors.New("primary down")
	})
	for i, id := range []string{"p", "s1", "s2"} {
		registerFake(t, svc, id, []string{"h0", "h1", "h2"}[i], fake.addr)
	}
	c := newWriteClient(t, nsAddr, func(o *Options) { o.WriteRetries = 1 })
	ctx := context.Background()
	if _, err := c.Create(ctx, "f", nameserver.CreateOptions{
		ChunkSize: 64, PreferredReplicas: []string{"p", "s1", "s2"},
	}); err != nil {
		t.Fatal(err)
	}
	if !c.cache.has("f") {
		t.Fatal("Create did not prime the metadata cache")
	}

	if _, err := c.Append(ctx, "f", []byte("x")); err == nil {
		t.Fatal("append against failing primary succeeded")
	}
	if c.cache.has("f") {
		t.Error("failed append left stale metadata in the cache")
	}
}

// TestCreatePrepareFailureLeavesNoOrphan is the regression test for a
// failed create stranding a zero-byte file: the nameserver installs the
// metadata before the client prepares the primary, so when Prepare fails
// the client must delete the name again — otherwise every retry of the
// create reports ErrExists against a file no dataserver ever accepted.
func TestCreatePrepareFailureLeavesNoOrphan(t *testing.T) {
	svc, nsAddr := startFakeNS(t)
	// No fake dataserver behind this address: Prepare's dial fails.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()
	registerFake(t, svc, "p", "h0", deadAddr)
	registerFake(t, svc, "s1", "h1", deadAddr)

	c := newWriteClient(t, nsAddr, nil)
	ctx := context.Background()
	if _, err := c.Create(ctx, "f", nameserver.CreateOptions{
		ChunkSize: 64, PreferredReplicas: []string{"p", "s1"},
	}); err == nil {
		t.Fatal("create with unreachable primary succeeded")
	}
	if _, err := svc.Lookup("f"); err == nil {
		t.Error("failed create left an orphan file registered")
	}

	// With the name free again, a retry against a live primary succeeds.
	alive := startFakeDS(t, func(int, dataserver.AppendArgs) (dataserver.AppendReply, error) {
		return dataserver.AppendReply{SizeBytes: 1}, nil
	})
	registerFake(t, svc, "p2", "h2", alive.addr)
	if _, err := c.Create(ctx, "f", nameserver.CreateOptions{
		ChunkSize: 64, PreferredReplicas: []string{"p2"}, Replication: 1,
	}); err != nil {
		t.Fatalf("retry after cleaned-up create failed: %v", err)
	}
}

// TestAppendFailsOverToPromotedPrimary drives the full client-side
// failover loop: the primary fails the first attempt, the nameserver
// promotes a survivor (as repair would), and the retried piece lands at
// the new primary under the original sequence number.
func TestAppendFailsOverToPromotedPrimary(t *testing.T) {
	svc, nsAddr := startFakeNS(t)
	dead := startFakeDS(t, func(int, dataserver.AppendArgs) (dataserver.AppendReply, error) {
		return dataserver.AppendReply{}, errors.New("primary crashed")
	})
	alive := startFakeDS(t, func(call int, a dataserver.AppendArgs) (dataserver.AppendReply, error) {
		return dataserver.AppendReply{SizeBytes: int64(len(a.Data))}, nil
	})
	registerFake(t, svc, "p", "h0", dead.addr)
	registerFake(t, svc, "s1", "h1", alive.addr)
	registerFake(t, svc, "s2", "h2", alive.addr)
	registerFake(t, svc, "s3", "h3", alive.addr)

	c := newWriteClient(t, nsAddr, nil)
	ctx := context.Background()
	if _, err := c.Create(ctx, "f", nameserver.CreateOptions{
		ChunkSize: 64, PreferredReplicas: []string{"p", "s1", "s2"},
	}); err != nil {
		t.Fatal(err)
	}

	// Repair replaces the dead primary with s3; s1 is promoted. The client
	// still holds the pre-promotion metadata from Create and must shake it
	// off via invalidate + refresh.
	if err := svc.ReplaceReplica("f", "p", nameserver.ReplicaLoc{
		ServerID: "s3", ControlAddr: alive.addr, DataAddr: alive.addr, Host: "h3",
	}); err != nil {
		t.Fatal(err)
	}

	size, err := c.Append(ctx, "f", []byte("survives"))
	if err != nil {
		t.Fatal(err)
	}
	if size != 8 {
		t.Errorf("size = %d, want 8", size)
	}
	deadCalls, deadSeqs := dead.stats()
	aliveCalls, aliveSeqs := alive.stats()
	if deadCalls != 1 || aliveCalls != 1 {
		t.Fatalf("attempts = %d dead + %d alive, want 1 + 1", deadCalls, aliveCalls)
	}
	if deadSeqs[0] != aliveSeqs[0] {
		t.Errorf("failover changed sequence number: %d then %d", deadSeqs[0], aliveSeqs[0])
	}
	if got := c.met.writeFailoverPasses.Value(); got != 1 {
		t.Errorf("writeFailoverPasses = %d, want 1", got)
	}
}
