package dataserver

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"log"
	"net"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/emunet"
	"github.com/mayflower-dfs/mayflower/internal/fabric"
	"github.com/mayflower-dfs/mayflower/internal/nameserver"
	"github.com/mayflower-dfs/mayflower/internal/topology"
	"github.com/mayflower-dfs/mayflower/internal/uuid"
)

// logBuf collects a server's log lines.
type logBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *logBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// startLogged starts a dataserver from cfg on ephemeral ports, its data
// listener wrapped, logging into the returned buffer.
func startLogged(t *testing.T, cfg Config, wrap func(net.Listener) net.Listener) (*Server, *logBuf) {
	t.Helper()
	logs := new(logBuf)
	cfg.Root, cfg.Logger = t.TempDir(), log.New(logs, "", 0)
	s, err := New(cfg)
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
	if err := s.Start(ctlLn, wrap(dataLn), ""); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, logs
}

// pacedServer starts a dataserver paced by pacer holding one size-byte
// file in a single chunk, and returns it with the file's id, its bytes
// and the server's log.
func pacedServer(t *testing.T, id string, pacer Pacer, size int) (*Server, uuid.UUID, []byte, *logBuf) {
	t.Helper()
	s, logs := startLogged(t, Config{ID: id, Pacer: pacer}, func(ln net.Listener) net.Listener { return ln })
	info := nameserver.FileInfo{ID: uuid.MustNew(), Name: "paced", ChunkSize: 1 << 20}
	if err := s.store.prepare(info); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, size)
	testRand().Read(data)
	if _, err := s.store.appendAt(info.ID, 0, data); err != nil {
		t.Fatal(err)
	}
	return s, info.ID, data, logs
}

// TestSendLoopAllocatesNothingPerQuantum: a 512 KiB read paced in 16 KiB
// quanta (32 sendfile calls) costs exactly the allocations of a two-quantum
// 32 KiB read, so the send loop allocates nothing per quantum. (A range of
// one quantum, 16 KiB, leaves by one write, not by the send loop.)
func TestSendLoopAllocatesNothingPerQuantum(t *testing.T) {
	gate := &quantumGate{quantum: 16 << 10}
	s, id, data, _ := pacedServer(t, "ds-allocs", gate, 512<<10)
	bulk := NewBulk(nil, 0, new(BulkMetrics))
	defer bulk.Close()
	buf := make([]byte, len(data))
	ctx := context.Background()
	read := func(n int) func() {
		return func() {
			if _, err := bulk.Read(ctx, s.DataAddr(), 1, id, 0, buf[:n]); err != nil {
				t.Fatal(err)
			}
		}
	}
	read(len(data))() // dial and warm the connection outside the count
	if !bytes.Equal(buf, data) {
		t.Fatal("paced read returned the wrong bytes")
	}
	grants := gate.grants.Load()
	small := testing.AllocsPerRun(50, read(32<<10))
	large := testing.AllocsPerRun(50, read(len(data)))
	if large != small {
		t.Errorf("a 32-quantum read allocates %v, a 2-quantum read %v: want equal", large, small)
	}
	if got, want := gate.grants.Load()-grants, int64(51*2+51*32); got != want {
		t.Errorf("%d quanta granted, want %d", got, want)
	}
}

// TestSendLoopTruncatedChunk: a chunk that lost its tail behind the
// server's back ends a paced multi-quantum read in io.ErrUnexpectedEOF —
// promptly, not by spinning on a 0-byte sendfile — and closes the
// connection.
func TestSendLoopTruncatedChunk(t *testing.T) {
	gate := &quantumGate{quantum: 16 << 10}
	s, id, data, logs := pacedServer(t, "ds-trunc", gate, 256<<10)
	if err := os.Truncate(s.store.chunkPath(id, 1), 100<<10); err != nil {
		t.Fatal(err)
	}
	bulk := NewBulk(nil, 0, new(BulkMetrics))
	defer bulk.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := bulk.Read(ctx, s.DataAddr(), 1, id, 0, make([]byte, len(data))); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("read of a truncated chunk: err = %v, want io.ErrUnexpectedEOF", err)
	}
	waitConns(t, s, 0)
	if !strings.Contains(logs.String(), io.ErrUnexpectedEOF.Error()) {
		t.Errorf("server log %q does not report the short chunk", logs.String())
	}
	if sent := gate.sent.Load(); sent != 100<<10 {
		t.Errorf("gate credited %d bytes, want the %d the chunk still had", sent, 100<<10)
	}
}

// TestServerCloseSeversPacedRead: closing a server mid-way through a slow
// paced read severs the stream at once, and the reader fails over to
// another replica.
func TestServerCloseSeversPacedRead(t *testing.T) {
	gate := &quantumGate{quantum: 16 << 10, delay: 5 * time.Millisecond} // 1 MiB: 64 quanta, ≥ 320 ms
	slow, id, data, _ := pacedServer(t, "ds-slow", gate, 1<<20)
	other := replicaOf(t, id, data)

	bulk := NewBulk(nil, 0, new(BulkMetrics))
	defer bulk.Close()
	buf := make([]byte, len(data))
	errc := make(chan error, 1)
	go func() {
		_, err := bulk.Read(context.Background(), slow.DataAddr(), 1, id, 0, buf)
		errc <- err
	}()
	for gate.sent.Load() < 4*gate.quantum {
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	if err := slow.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("a read severed mid-stream succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close did not sever the paced stream")
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("Close and the severed read took %v", took)
	}
	failOver(t, bulk, other, id, data)
}

// replicaOf starts an unpaced dataserver holding a copy of a pacedServer
// file.
func replicaOf(t *testing.T, id uuid.UUID, data []byte) *Server {
	t.Helper()
	other := startServer(t, "ds-other", nil)
	if err := other.store.prepare(nameserver.FileInfo{ID: id, Name: "paced", ChunkSize: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	if _, err := other.store.appendAt(id, 0, data); err != nil {
		t.Fatal(err)
	}
	return other
}

// failOver reads the whole file back from the surviving replica.
func failOver(t *testing.T, bulk *Bulk, other *Server, id uuid.UUID, data []byte) {
	t.Helper()
	buf := make([]byte, len(data))
	if _, err := bulk.Read(context.Background(), other.DataAddr(), 1, id, 0, buf); err != nil {
		t.Fatalf("failover read: %v", err)
	}
	if !bytes.Equal(buf, data) {
		t.Error("failover read returned the wrong bytes")
	}
}

// TestServerCloseUnblocksStarvedRead: a paced read whose link is cut
// starves in its emunet gate, which grants nothing until the link heals.
// Close still returns at once — the send loop checks for it between
// starved polls — and the reader fails over to another replica.
func TestServerCloseUnblocksStarvedRead(t *testing.T) {
	topo, err := topology.New(topology.Config{
		Pods: 1, RacksPerPod: 1, HostsPerRack: 2, AggsPerPod: 1, Cores: 1,
		EdgeLinkBps: topology.Mbps(8), EdgeAggLinkBps: topology.Mbps(8), AggCoreLinkBps: topology.Mbps(8),
	})
	if err != nil {
		t.Fatal(err)
	}
	path := topo.ShortestPaths(topo.HostAt(0, 0, 0), topo.HostAt(0, 0, 1))[0]
	fab := emunet.New(topo)
	if err := fab.RegisterFlow(1, path); err != nil {
		t.Fatal(err)
	}
	slow, id, data, _ := pacedServer(t, "ds-starved", fab, 1<<20) // 1 s at 8 Mbps
	other := replicaOf(t, id, data)
	bulk := NewBulk(nil, 0, new(BulkMetrics))
	defer bulk.Close()
	errc := make(chan error, 1)
	go func() {
		_, err := bulk.Read(context.Background(), slow.DataAddr(), 1, id, 0, make([]byte, len(data)))
		errc <- err
	}()
	for fab.FlowTransferred(1) == 0 {
		time.Sleep(time.Millisecond)
	}
	fab.SetLinkCapacity(path[0], 0)
	time.Sleep(50 * time.Millisecond) // past the 16 ms quantum in flight: the sender waits in the gate

	closed := make(chan struct{})
	go func() { slow.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(100 * time.Millisecond):
		t.Fatal("Server.Close is blocked behind a gate starved on a cut link")
	}
	if err := <-errc; err == nil {
		t.Fatal("a read severed by Close succeeded")
	}
	failOver(t, bulk, other, id, data)
}

// heldGate grants at most quantum bytes per Next, none before release is
// closed: until then each Next waits a starved poll and returns 0. It
// records what it granted and each credit.
type heldGate struct {
	quantum int64
	release chan struct{}
	asked   chan struct{} // closed by the first Next
	once    sync.Once

	mu      sync.Mutex
	granted int64
	sent    []int64
}

func newHeldGate(quantum int64) *heldGate {
	return &heldGate{quantum: quantum, release: make(chan struct{}), asked: make(chan struct{})}
}

func (g *heldGate) Pace(uint64) fabric.Gate { return g }

func (g *heldGate) Next(limit int64) int64 {
	g.once.Do(func() { close(g.asked) })
	select {
	case <-g.release:
	case <-time.After(time.Millisecond):
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	q := min(limit, g.quantum)
	g.granted += q
	return q
}

func (g *heldGate) Sent(n int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.sent = append(g.sent, n)
}

// rawRead dials s and sends one bulk read request for [off, off+n) of id.
func rawRead(t *testing.T, s *Server, id uuid.UUID, off, n int64) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", s.DataAddr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	req := binary.BigEndian.AppendUint64(nil, 1)
	req = append(req, id[:]...)
	req = binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(req, uint64(off)), uint64(n))
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestSmallReplyPacing: a paced small read asks its gate for exactly its
// length, quantum by quantum, writes nothing before the last grant, then
// sends header and bytes and credits the length once.
func TestSmallReplyPacing(t *testing.T) {
	gate := newHeldGate(1000)
	s, id, data, _ := pacedServer(t, "ds-held", gate, 4096)
	conn := rawRead(t, s, id, 0, int64(len(data)))
	<-gate.asked
	_ = conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if n, err := conn.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("before the grant the client read %d bytes, err %v; want nothing", n, err)
	}
	close(gate.release)
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	reply := make([]byte, 9+len(data))
	if _, err := io.ReadFull(conn, reply); err != nil {
		t.Fatal(err)
	}
	if reply[0] != dataStatusOK || binary.BigEndian.Uint64(reply[1:9]) != uint64(len(data)) || !bytes.Equal(reply[9:], data) {
		t.Fatal("paced small reply has the wrong header or bytes")
	}
	waitGauge(t, "reads_served", s.met.readsServed.Value, 1)
	gate.mu.Lock()
	defer gate.mu.Unlock()
	if gate.granted != int64(len(data)) || !slices.Equal(gate.sent, []int64{int64(len(data))}) {
		t.Errorf("gate granted %d and was credited %v; want %d granted and credited once", gate.granted, gate.sent, len(data))
	}
}

// TestSmallReplyStarvedUntilClose: a small read whose gate grants nothing
// ends when the server closes, its connection closed with no header
// written and nothing credited.
func TestSmallReplyStarvedUntilClose(t *testing.T) {
	gate := newHeldGate(1000)
	s, id, data, _ := pacedServer(t, "ds-starved-small", gate, 4096)
	conn := rawRead(t, s, id, 0, int64(len(data)))
	<-gate.asked
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close is blocked behind a starved small read")
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if got, err := io.ReadAll(conn); len(got) != 0 || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("a starved small read's client got %d bytes, err %v; want a closed connection and nothing", len(got), err)
	}
	gate.mu.Lock()
	defer gate.mu.Unlock()
	if len(gate.sent) != 0 {
		t.Errorf("gate was credited %v, want nothing", gate.sent)
	}
}

// plainConnListener hands out connections that hide their file
// descriptor, as a wrapper embedding only net.Conn does.
type plainConnListener struct{ net.Listener }

func (l plainConnListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	return struct{ net.Conn }{conn}, err
}

// TestNonSyscallConnIsClosed: the send loop needs the socket's descriptor,
// so a data connection without one is closed with a log line — there is
// no second, copying loop to fall back to — and the listener keeps
// serving.
func TestNonSyscallConnIsClosed(t *testing.T) {
	s, logs := startLogged(t, Config{ID: "ds-plain"}, func(ln net.Listener) net.Listener { return plainConnListener{ln} })
	bulk := NewBulk(nil, 0, new(BulkMetrics))
	defer bulk.Close()
	for i := 0; i < 2; i++ {
		if _, err := bulk.Read(context.Background(), s.DataAddr(), 1, uuid.MustNew(), 0, make([]byte, 1)); err == nil {
			t.Fatal("read over a non-syscall.Conn succeeded")
		}
	}
	if got := strings.Count(logs.String(), "not a syscall.Conn"); got != 2 {
		t.Errorf("server log %q: want the refusal logged once per connection", logs.String())
	}
}
