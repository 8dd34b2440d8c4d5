package dataserver

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/fabric"
	"github.com/mayflower-dfs/mayflower/internal/nameserver"
	"github.com/mayflower-dfs/mayflower/internal/uuid"
)

// countingListener counts the connections a data listener accepted: the
// number of dials a server saw, whoever made them.
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return conn, err
}

// bulkFixture is one dataserver holding one 90-byte file in 32-byte
// chunks, and a Bulk to read it with.
type bulkFixture struct {
	srv     *Server
	ln      *countingListener
	info    nameserver.FileInfo
	payload []byte
	bulk    *Bulk
	met     *BulkMetrics
}

// startBulkServer starts a dataserver over root with a counting data
// listener on dataAddr; tweak runs before Start.
func startBulkServer(t *testing.T, root, dataAddr string, pacer Pacer, tweak func(*Server)) (*Server, *countingListener) {
	t.Helper()
	s, err := New(Config{ID: "ds-bulk", Root: root, Host: "host-bulk", Pacer: pacer})
	if err != nil {
		t.Fatal(err)
	}
	if tweak != nil {
		tweak(s)
	}
	ctlLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dataLn, err := net.Listen("tcp", dataAddr)
	if err != nil {
		t.Fatal(err)
	}
	ln := &countingListener{Listener: dataLn}
	if err := s.Start(ctlLn, ln, ""); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, ln
}

func newBulkFixture(t *testing.T, pacer Pacer, tweak func(*Server)) *bulkFixture {
	t.Helper()
	f := &bulkFixture{payload: bytes.Repeat([]byte("0123456789"), 9), met: new(BulkMetrics)}
	f.srv, f.ln = startBulkServer(t, t.TempDir(), "127.0.0.1:0", pacer, tweak)
	f.info = nameserver.FileInfo{ID: uuid.MustNew(), Name: "bulk-file", ChunkSize: 32}
	if err := f.srv.store.prepare(f.info); err != nil {
		t.Fatal(err)
	}
	if _, err := f.srv.store.appendAt(f.info.ID, 0, f.payload); err != nil {
		t.Fatal(err)
	}
	f.bulk = NewBulk(nil, 0, f.met)
	t.Cleanup(func() { f.bulk.Close() })
	return f
}

// read reads [off, off+n) of the fixture's file and checks the bytes.
func (f *bulkFixture) read(ctx context.Context, off, n int64) error {
	buf := make([]byte, n)
	size, err := f.bulk.Read(ctx, f.srv.DataAddr(), 7, f.info.ID, off, buf)
	if err != nil {
		return err
	}
	if size != int64(len(f.payload)) || !bytes.Equal(buf, f.payload[off:off+n]) {
		return errors.New("bulk read returned the wrong size or bytes")
	}
	return nil
}

func (f *bulkFixture) idle() int {
	f.bulk.mu.Lock()
	defer f.bulk.mu.Unlock()
	return len(f.bulk.idle[f.srv.DataAddr()])
}

// waitGauge waits for a server-side count to reach want: the server has
// noticed what the client already knows (a close, a stream's last byte).
func waitGauge(t *testing.T, what string, read func() int64, want int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); read() != want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want %d", what, read(), want)
		}
	}
}

func waitConns(t *testing.T, s *Server, want int64) {
	t.Helper()
	waitGauge(t, "open data connections", s.met.dataConns.Value, want)
}

// barrierPacer holds every stream until n of them are open at once.
type barrierPacer struct {
	wg sync.WaitGroup
}

func (p *barrierPacer) Pace(uint64) fabric.Gate {
	p.wg.Done()
	p.wg.Wait()
	return nil
}

// TestBulk is the table for the pooled bulk client and the server's
// back-to-back loop: what rides one connection, what closes it, and what
// a connection that died idle costs.
func TestBulk(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"sequential requests ride one accepted connection", func(t *testing.T) {
			f := newBulkFixture(t, nil, nil)
			for i := int64(0); i < 20; i++ {
				if err := f.read(ctx, i, 90-i); err != nil {
					t.Fatal(err)
				}
			}
			if a, d, r := f.ln.accepts.Load(), f.met.Dials.Value(), f.met.Reuses.Value(); a != 1 || d != 1 || r != 19 {
				t.Errorf("20 reads: %d accepts, %d dials, %d reuses; want 1, 1, 19", a, d, r)
			}
			waitGauge(t, "reads_served", f.srv.met.readsServed.Value, 20)
		}},
		{"concurrent readers get distinct connections and the idle set stays capped", func(t *testing.T) {
			const readers = bulkIdlePerAddr + 3
			pacer := &barrierPacer{}
			f := newBulkFixture(t, pacer, nil)
			for round := 0; round < 2; round++ {
				pacer.wg.Add(readers)
				errs := make(chan error, readers)
				for i := 0; i < readers; i++ {
					go func() { errs <- f.read(ctx, 0, 90) }()
				}
				for i := 0; i < readers; i++ {
					if err := <-errs; err != nil {
						t.Fatal(err)
					}
				}
				if got := f.idle(); got != bulkIdlePerAddr {
					t.Errorf("round %d: %d idle connections, want the cap %d", round, got, bulkIdlePerAddr)
				}
			}
			// Every stream of a round was open at once, so each had its own
			// connection; the second round reused the pooled ones.
			want := int64(2*readers - bulkIdlePerAddr)
			if a := f.ln.accepts.Load(); a != want {
				t.Errorf("%d accepts over two rounds of %d concurrent reads, want %d", a, readers, want)
			}
			waitConns(t, f.srv, bulkIdlePerAddr)
		}},
		{"an error reply closes the connection", func(t *testing.T) {
			f := newBulkFixture(t, nil, nil)
			if err := f.read(ctx, 0, 90); err != nil {
				t.Fatal(err)
			}
			if _, err := f.bulk.Read(ctx, f.srv.DataAddr(), 0, f.info.ID, 80, make([]byte, 20)); !errors.Is(err, ErrOutOfRange) {
				t.Fatalf("over-read err = %v, want ErrOutOfRange", err)
			}
			if _, err := f.bulk.Read(ctx, f.srv.DataAddr(), 0, uuid.MustNew(), 0, make([]byte, 1)); !errors.Is(err, ErrUnknownFile) {
				t.Fatalf("unknown file err = %v, want ErrUnknownFile", err)
			}
			if got := f.idle(); got != 0 {
				t.Errorf("%d idle connections after error replies, want 0", got)
			}
			waitConns(t, f.srv, 0)
			if err := f.read(ctx, 0, 90); err != nil {
				t.Fatal(err)
			}
			if d, r := f.met.Dials.Value(), f.met.Redials.Value(); d != 3 || r != 0 {
				t.Errorf("%d dials, %d redials; want 3 (one per closed connection) and 0", d, r)
			}
		}},
		{"a stream that fails past its header closes the connection and is an error, not misframed bytes", func(t *testing.T) {
			f := newBulkFixture(t, nil, nil)
			if err := f.read(ctx, 0, 90); err != nil {
				t.Fatal(err)
			}
			// The second chunk loses its tail behind the server's back: the
			// header promises 90 bytes and the stream runs dry at 42.
			if err := os.Truncate(f.srv.store.chunkPath(f.info.ID, 2), 10); err != nil {
				t.Fatal(err)
			}
			if err := f.read(ctx, 0, 90); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("short body err = %v, want io.ErrUnexpectedEOF", err)
			}
			waitConns(t, f.srv, 0)
			// The next read is framed from a clean connection.
			if err := f.read(ctx, 0, 32); err != nil {
				t.Fatal(err)
			}
			if a, r := f.ln.accepts.Load(), f.met.Redials.Value(); a != 2 || r != 0 {
				t.Errorf("%d accepts, %d redials; want 2 and 0", a, r)
			}
		}},
		{"the server closes an idle connection and the next read costs one redial", func(t *testing.T) {
			f := newBulkFixture(t, nil, func(s *Server) { s.dataIdle = 20 * time.Millisecond })
			if err := f.read(ctx, 0, 90); err != nil {
				t.Fatal(err)
			}
			waitConns(t, f.srv, 0)
			if err := f.read(ctx, 0, 90); err != nil {
				t.Fatalf("read after the server's idle close: %v", err)
			}
			if d, r := f.met.Dials.Value(), f.met.Redials.Value(); d != 2 || r != 1 {
				t.Errorf("%d dials, %d redials; want 2 and 1", d, r)
			}
		}},
		{"the client drops a connection idle past its own limit without a redial", func(t *testing.T) {
			f := newBulkFixture(t, nil, nil)
			f.bulk.idleLimit = time.Millisecond
			if err := f.read(ctx, 0, 90); err != nil {
				t.Fatal(err)
			}
			time.Sleep(5 * time.Millisecond)
			if err := f.read(ctx, 0, 90); err != nil {
				t.Fatal(err)
			}
			if d, ru, rd := f.met.Dials.Value(), f.met.Reuses.Value(), f.met.Redials.Value(); d != 2 || ru != 0 || rd != 0 {
				t.Errorf("%d dials, %d reuses, %d redials; want 2, 0, 0", d, ru, rd)
			}
			waitConns(t, f.srv, 1)
		}},
		{"reads of one server close another server's connections idle past the limit", func(t *testing.T) {
			f := newBulkFixture(t, nil, nil)
			f.bulk.idleLimit = time.Millisecond
			other, _ := startBulkServer(t, t.TempDir(), "127.0.0.1:0", nil, nil)
			if err := other.store.prepare(f.info); err != nil {
				t.Fatal(err)
			}
			if err := f.read(ctx, 0, 90); err != nil {
				t.Fatal(err)
			}
			waitConns(t, f.srv, 1)
			time.Sleep(5 * time.Millisecond)
			if _, err := f.bulk.Read(ctx, other.DataAddr(), 7, f.info.ID, 0, nil); err != nil {
				t.Fatal(err)
			}
			waitConns(t, other, 1)
			waitConns(t, f.srv, 0)
		}},
		{"a server restarted on the same address costs one redial", func(t *testing.T) {
			f := newBulkFixture(t, nil, nil)
			if err := f.read(ctx, 0, 90); err != nil {
				t.Fatal(err)
			}
			addr, root := f.srv.DataAddr(), f.srv.cfg.Root
			f.srv.Close()
			f.srv, f.ln = startBulkServer(t, root, addr, nil, nil)
			if err := f.read(ctx, 0, 90); err != nil {
				t.Fatalf("read after restart: %v", err)
			}
			if d, r := f.met.Dials.Value(), f.met.Redials.Value(); d != 2 || r != 1 {
				t.Errorf("%d dials, %d redials; want 2 and 1", d, r)
			}
		}},
		{"a server gone silent costs one timeout, not two", func(t *testing.T) {
			// Answers the first request on a connection and swallows the
			// rest: a replica that stalled after the pool warmed up.
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			var accepts atomic.Int64
			go func() {
				for {
					conn, err := ln.Accept()
					if err != nil {
						return
					}
					accepts.Add(1)
					go func() {
						defer conn.Close()
						var hdr [40]byte
						if _, err := io.ReadFull(conn, hdr[:]); err != nil {
							return
						}
						conn.Write([]byte{dataStatusOK, 0, 0, 0, 0, 0, 0, 0, 1, 'x'})
						io.Copy(io.Discard, conn)
					}()
				}
			}()
			met := new(BulkMetrics)
			bulk := NewBulk(nil, 0, met)
			defer bulk.Close()
			read := func(timeout time.Duration) error {
				rctx, cancel := context.WithTimeout(ctx, timeout)
				defer cancel()
				_, err := bulk.Read(rctx, ln.Addr().String(), 0, uuid.MustNew(), 0, make([]byte, 1))
				return err
			}
			if err := read(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			const timeout = 100 * time.Millisecond
			start := time.Now()
			if err := read(timeout); !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("read from a silent server: err = %v, want a timeout", err)
			}
			if took := time.Since(start); took > 2*timeout-10*time.Millisecond {
				t.Errorf("the stalled read took %v, want about %v", took, timeout)
			}
			if a, d, r := accepts.Load(), met.Dials.Value(), met.Redials.Value(); a != 1 || d != 1 || r != 0 {
				t.Errorf("%d accepts, %d dials, %d redials; want 1, 1, 0: a deadline must not be retried", a, d, r)
			}
		}},
		{"a read cancelled mid-stream ends at once and its connection is not pooled", func(t *testing.T) {
			gate := &quantumGate{quantum: 16 << 10, delay: 5 * time.Millisecond} // 1 MiB: 64 quanta, ≥ 320 ms
			s, id, data, _ := pacedServer(t, "ds-cancel", gate, 1<<20)
			bulk := NewBulk(nil, 0, new(BulkMetrics))
			defer bulk.Close()
			if _, err := bulk.Read(ctx, s.DataAddr(), 1, id, 0, make([]byte, 1)); err != nil {
				t.Fatal(err) // warms the connection the slow read reuses
			}
			rctx, cancel := context.WithCancel(ctx)
			errc := make(chan error, 1)
			go func() {
				_, err := bulk.Read(rctx, s.DataAddr(), 1, id, 0, make([]byte, len(data)))
				errc <- err
			}()
			for gate.sent.Load() < 4*gate.quantum {
				time.Sleep(time.Millisecond)
			}
			start := time.Now()
			cancel()
			if err := <-errc; !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled read: err = %v, want context.Canceled", err)
			}
			if took := time.Since(start); took > 50*time.Millisecond {
				t.Errorf("the cancelled read returned %v after its cancel", took)
			}
			bulk.mu.Lock()
			idle := len(bulk.idle[s.DataAddr()])
			bulk.mu.Unlock()
			if idle != 0 {
				t.Errorf("%d idle connections after the cancel, want 0: a cancelled read's connection is closed", idle)
			}
			waitConns(t, s, 0)
		}},
		{"Server.Close severs idle pooled connections", func(t *testing.T) {
			f := newBulkFixture(t, nil, nil)
			if err := f.read(ctx, 0, 90); err != nil {
				t.Fatal(err)
			}
			closed := make(chan struct{})
			go func() { f.srv.Close(); close(closed) }()
			select {
			case <-closed:
			case <-time.After(5 * time.Second):
				t.Fatal("Server.Close waits on an idle pooled connection")
			}
			if err := f.read(ctx, 0, 90); err == nil {
				t.Fatal("read from a closed server succeeded")
			}
			if r := f.met.Redials.Value(); r != 1 {
				t.Errorf("%d redials, want 1: the severed connection is replaced, and the replacement is refused", r)
			}
		}},
		{"replicateFrom of a 3-slice file dials once", func(t *testing.T) {
			f := newBulkFixture(t, nil, nil)
			big := nameserver.FileInfo{ID: uuid.MustNew(), Name: "three-slices", ChunkSize: 4 << 20}
			data := make([]byte, 2*MaxAppend+1)
			for i := range data {
				data[i] = byte(i * 7)
			}
			if err := f.srv.store.prepare(big); err != nil {
				t.Fatal(err)
			}
			if _, err := f.srv.store.appendAt(big.ID, 0, data); err != nil {
				t.Fatal(err)
			}
			dst := startServer(t, "ds-dst", nil)
			size, err := dst.replicateFrom(ctx, ReplicateArgs{Info: big, SourceDataAddr: f.srv.DataAddr(), SizeBytes: int64(len(data))})
			if err != nil || size != int64(len(data)) {
				t.Fatalf("replicateFrom = %d, %v", size, err)
			}
			if got := readAll(t, dst, big.ID, 0, int64(len(data))); !bytes.Equal(got, data) {
				t.Error("replicated bytes differ")
			}
			waitGauge(t, "slices served", f.srv.met.readsServed.Value, 3)
			if a := f.ln.accepts.Load(); a != 1 {
				t.Errorf("source saw %d accepts for 3 slices, want 1", a)
			}
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}
