package dataserver

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/fabric"
	"github.com/mayflower-dfs/mayflower/internal/nameserver"
	"github.com/mayflower-dfs/mayflower/internal/rpc"
	"github.com/mayflower-dfs/mayflower/internal/uuid"
	"github.com/mayflower-dfs/mayflower/internal/wire"
)

// cluster is three running dataservers plus typed control clients.
type cluster struct {
	servers []*Server
	ctl     []*rpc.Peer
	info    nameserver.FileInfo
}

// startServer brings up one dataserver on ephemeral ports.
func startServer(t testing.TB, id string, pacer Pacer) *Server {
	t.Helper()
	return startServerOn(t, id, pacer, func(ln net.Listener) net.Listener { return ln })
}

// startServerOn is startServer with the control listener wrapped.
func startServerOn(t testing.TB, id string, pacer Pacer, wrap func(net.Listener) net.Listener) *Server {
	t.Helper()
	s, err := New(Config{ID: id, Root: t.TempDir(), Host: "host-" + id, Pacer: pacer})
	if err != nil {
		t.Fatal(err)
	}
	ctlLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dataLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(wrap(ctlLn), dataLn, ""); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// startCluster brings up n dataservers and a prepared, replicated file.
func startCluster(t *testing.T, n int, chunkSize int64) *cluster {
	t.Helper()
	return startClusterOn(t, n, chunkSize, func(ln net.Listener) net.Listener { return ln })
}

// startClusterOn is startCluster with each server's control listener
// wrapped, ds-0's first.
func startClusterOn(t *testing.T, n int, chunkSize int64, wrap func(net.Listener) net.Listener) *cluster {
	t.Helper()
	c := &cluster{}
	var replicas []nameserver.ReplicaLoc
	for i := 0; i < n; i++ {
		s := startServerOn(t, fmt.Sprintf("ds-%d", i), nil, wrap)
		c.servers = append(c.servers, s)
		replicas = append(replicas, nameserver.ReplicaLoc{
			ServerID:    s.cfg.ID,
			ControlAddr: s.ControlAddr(),
			DataAddr:    s.DataAddr(),
			Host:        s.cfg.Host,
		})
		cc := rpc.NewPeer(s.ControlAddr(), rpc.Options{})
		t.Cleanup(func() { cc.Close() })
		c.ctl = append(c.ctl, cc)
	}
	c.info = nameserver.FileInfo{
		ID:        uuid.MustNew(),
		Name:      "cluster-file",
		ChunkSize: chunkSize,
		Replicas:  replicas,
	}
	var out struct{}
	if err := c.ctl[0].Call(context.Background(), string(MethodPrepare),
		PrepareArgs{Info: c.info, Relay: true}, &out); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPrepareRelayReachesAllReplicas(t *testing.T) {
	c := startCluster(t, 3, 64)
	for i, cc := range c.ctl {
		var reply StatReply
		if err := cc.Call(context.Background(), string(MethodStat), FileIDArgs{FileID: c.info.ID}, &reply); err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		if reply.SizeBytes != 0 {
			t.Errorf("replica %d size = %d", i, reply.SizeBytes)
		}
	}
}

func TestPrepareRelayRejectsNonPrimary(t *testing.T) {
	c := startCluster(t, 3, 64)
	info := c.info
	info.ID = uuid.MustNew()
	info.Name = "wrong-primary"
	var out struct{}
	err := c.ctl[1].Call(context.Background(), string(MethodPrepare), PrepareArgs{Info: info, Relay: true}, &out)
	if err == nil || !strings.Contains(err.Error(), "not the file's primary") {
		t.Errorf("err = %v, want not-primary", err)
	}
}

func TestAppendRelaysToReplicas(t *testing.T) {
	c := startCluster(t, 3, 16)
	payload := bytes.Repeat([]byte("ab"), 20) // 40 bytes across 3 chunks

	var reply AppendReply
	err := appendVia(c.ctl[0], AppendArgs{FileID: c.info.ID, Data: payload}, &reply)
	if err != nil {
		t.Fatal(err)
	}
	if reply.SizeBytes != 40 {
		t.Fatalf("size = %d, want 40", reply.SizeBytes)
	}
	// Every replica holds all 40 bytes.
	for i, cc := range c.ctl {
		var st StatReply
		if err := cc.Call(context.Background(), string(MethodStat), FileIDArgs{FileID: c.info.ID}, &st); err != nil {
			t.Fatal(err)
		}
		if st.SizeBytes != 40 {
			t.Errorf("replica %d size = %d, want 40", i, st.SizeBytes)
		}
	}
}

func TestAppendRejectsNonPrimary(t *testing.T) {
	c := startCluster(t, 3, 16)
	var reply AppendReply
	err := appendVia(c.ctl[2], AppendArgs{FileID: c.info.ID, Data: []byte("x")}, &reply)
	if err == nil || !strings.Contains(err.Error(), "not the file's primary") {
		t.Errorf("err = %v, want not-primary", err)
	}
}

func TestAppendTooLarge(t *testing.T) {
	c := startCluster(t, 1, 1<<20)
	var reply AppendReply
	err := appendVia(c.ctl[0], AppendArgs{FileID: c.info.ID, Data: make([]byte, MaxAppend+1)}, &reply)
	if err == nil {
		t.Error("oversized append accepted")
	}
}

func TestAppendFailsWhenReplicaDown(t *testing.T) {
	c := startCluster(t, 3, 16)
	// Kill a secondary replica; the primary's relay must fail loudly
	// rather than silently under-replicate.
	if err := c.servers[1].Close(); err != nil {
		t.Fatal(err)
	}
	var reply AppendReply
	err := appendVia(c.ctl[0], AppendArgs{FileID: c.info.ID, Data: []byte("x")}, &reply)
	if err == nil {
		t.Error("append succeeded with a dead replica")
	}
}

func TestConcurrentAppendsThroughPrimary(t *testing.T) {
	c := startCluster(t, 3, 256)
	var wg sync.WaitGroup
	const writers = 6
	const perWriter = 10
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cc := rpc.NewPeer(c.servers[0].ControlAddr(), rpc.Options{})
			defer cc.Close()
			for i := 0; i < perWriter; i++ {
				var reply AppendReply
				if err := appendVia(cc, AppendArgs{FileID: c.info.ID, Data: []byte("0123456789")}, &reply); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	want := int64(writers * perWriter * 10)
	for i, cc := range c.ctl {
		var st StatReply
		if err := cc.Call(context.Background(), string(MethodStat), FileIDArgs{FileID: c.info.ID}, &st); err != nil {
			t.Fatal(err)
		}
		if st.SizeBytes != want {
			t.Errorf("replica %d size = %d, want %d", i, st.SizeBytes, want)
		}
	}
	// No torn appends on any replica.
	for i := range c.servers {
		data := readAll(t, c.servers[i], c.info.ID, 0, want)
		for off := int64(0); off+10 <= int64(len(data)); off += 10 {
			if string(data[off:off+10]) != "0123456789" {
				t.Fatalf("replica %d interleaved append at %d", i, off)
			}
		}
	}
}

// readAll fetches a byte range through the bulk data protocol.
func readAll(t *testing.T, s *Server, id uuid.UUID, offset, length int64) []byte {
	t.Helper()
	bulk := NewBulk(nil, 0, new(BulkMetrics))
	defer bulk.Close()
	data := make([]byte, length)
	if _, err := bulk.Read(context.Background(), s.DataAddr(), 1, id, offset, data); err != nil {
		t.Fatal(err)
	}
	return data
}

func TestDataProtocolRoundTrip(t *testing.T) {
	c := startCluster(t, 2, 32)
	payload := bytes.Repeat([]byte("xyz"), 30) // 90 bytes
	var reply AppendReply
	if err := appendVia(c.ctl[0], AppendArgs{FileID: c.info.ID, Data: payload}, &reply); err != nil {
		t.Fatal(err)
	}

	// Read the full range from the secondary replica.
	got := readAll(t, c.servers[1], c.info.ID, 0, 90)
	if !bytes.Equal(got, payload) {
		t.Error("data protocol returned wrong bytes")
	}
	// Ranged read.
	got = readAll(t, c.servers[0], c.info.ID, 30, 45)
	if !bytes.Equal(got, payload[30:75]) {
		t.Error("ranged read returned wrong bytes")
	}
}

func TestDataProtocolReportsSize(t *testing.T) {
	c := startCluster(t, 1, 32)
	if err := appendVia(c.ctl[0], AppendArgs{FileID: c.info.ID, Data: bytes.Repeat([]byte("q"), 77)}, &AppendReply{}); err != nil {
		t.Fatal(err)
	}
	bulk := NewBulk(nil, 0, new(BulkMetrics))
	defer bulk.Close()
	size, err := bulk.Read(context.Background(), c.servers[0].DataAddr(), 0, c.info.ID, 0, make([]byte, 10))
	if err != nil {
		t.Fatal(err)
	}
	if size != 77 {
		t.Errorf("reported size = %d, want 77", size)
	}
}

func TestDataProtocolErrors(t *testing.T) {
	c := startCluster(t, 1, 32)

	bulk := NewBulk(nil, 0, new(BulkMetrics))
	defer bulk.Close()
	read := func(id uuid.UUID, off, length int64) error {
		_, err := bulk.Read(context.Background(), c.servers[0].DataAddr(), 0, id, off, make([]byte, length))
		return err
	}

	if err := read(uuid.MustNew(), 0, 1); !errors.Is(err, ErrUnknownFile) {
		t.Errorf("unknown file err = %v", err)
	}
	if err := read(c.info.ID, 0, 1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("over-read err = %v", err)
	}
}

func TestRegistersWithNameserver(t *testing.T) {
	// Bring up a real nameserver.
	nsStore := newNSStore(t)
	svc, err := nameserver.NewService(nsStore, testRand())
	if err != nil {
		t.Fatal(err)
	}
	nsSrv := wire.NewServer()
	if err := nameserver.RegisterRPC(nsSrv, svc); err != nil {
		t.Fatal(err)
	}
	nsLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go nsSrv.Serve(nsLn)
	t.Cleanup(func() { nsSrv.Close() })

	s, err := New(Config{ID: "reg-ds", Root: t.TempDir(), Host: "h", Pod: 1, Rack: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctlLn, _ := net.Listen("tcp", "127.0.0.1:0")
	dataLn, _ := net.Listen("tcp", "127.0.0.1:0")
	if err := s.Start(ctlLn, dataLn, nsLn.Addr().String()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	servers := svc.Servers()
	if len(servers) != 1 || servers[0].ID != "reg-ds" || servers[0].Pod != 1 || servers[0].Rack != 2 {
		t.Errorf("registered servers = %+v", servers)
	}
	if servers[0].ControlAddr != s.ControlAddr() || servers[0].DataAddr != s.DataAddr() {
		t.Error("registered addresses do not match server addresses")
	}
}

func TestListFilesRPC(t *testing.T) {
	c := startCluster(t, 1, 32)
	var recs []nameserver.FileRecord
	if err := c.ctl[0].Call(context.Background(), string(MethodListFiles), struct{}{}, &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Info.ID != c.info.ID {
		t.Errorf("ListFiles = %+v", recs)
	}
}

func TestDeleteRPC(t *testing.T) {
	c := startCluster(t, 1, 32)
	var out struct{}
	if err := c.ctl[0].Call(context.Background(), string(MethodDelete), FileIDArgs{FileID: c.info.ID}, &out); err != nil {
		t.Fatal(err)
	}
	var st StatReply
	err := c.ctl[0].Call(context.Background(), string(MethodStat), FileIDArgs{FileID: c.info.ID}, &st)
	if err == nil {
		t.Error("stat succeeded after delete")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Root: t.TempDir()}); err == nil {
		t.Error("missing ID accepted")
	}
}

func TestCloseIdempotent(t *testing.T) {
	s := startServer(t, "close-ds", nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// quantumGate is a Pacer whose one gate grants fixed quanta, each after
// a delay, and counts what it granted and was credited.
type quantumGate struct {
	quantum int64
	delay   time.Duration
	grants  atomic.Int64
	sent    atomic.Int64
}

func (g *quantumGate) Pace(uint64) fabric.Gate { return g }

func (g *quantumGate) Next(limit int64) int64 {
	time.Sleep(g.delay)
	g.grants.Add(1)
	return min(limit, g.quantum)
}

func (g *quantumGate) Sent(n int64) { g.sent.Add(n) }

func TestPacerIsApplied(t *testing.T) {
	s := startServer(t, "paced-ds", &quantumGate{quantum: 1 << 20, delay: 30 * time.Millisecond})
	info := nameserver.FileInfo{
		ID:        uuid.MustNew(),
		Name:      "paced",
		ChunkSize: 1 << 20,
		Replicas:  []nameserver.ReplicaLoc{{ServerID: "paced-ds"}},
	}
	cc := rpc.NewPeer(s.ControlAddr(), rpc.Options{})
	defer cc.Close()
	var out struct{}
	if err := cc.Call(context.Background(), string(MethodPrepare), PrepareArgs{Info: info}, &out); err != nil {
		t.Fatal(err)
	}
	if err := appendVia(cc, AppendArgs{FileID: info.ID, Data: []byte("0123456789")}, &AppendReply{}); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	got := readAll(t, s, info.ID, 0, 10)
	if string(got) != "0123456789" {
		t.Fatalf("read = %q", got)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("read completed in %v; pacer not applied", elapsed)
	}
}
