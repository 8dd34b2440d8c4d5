package client

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/flowctl"
	"github.com/mayflower-dfs/mayflower/internal/flowserver"
	"github.com/mayflower-dfs/mayflower/internal/nameserver"
	"github.com/mayflower-dfs/mayflower/internal/obs"
	"github.com/mayflower-dfs/mayflower/internal/topology"
	"github.com/mayflower-dfs/mayflower/internal/wire"
)

// meetConn holds the first reply byte of each request back until another
// connection's request is also out: two segments of one read are then
// provably in flight together, each on a connection of its own.
type meetConn struct {
	net.Conn
	meet chan struct{}
	sent bool // a request left and its reply has not begun; the read that holds the connection owns this
}

func (c *meetConn) Write(p []byte) (int, error) {
	c.sent = true
	return c.Conn.Write(p)
}

func (c *meetConn) Read(p []byte) (int, error) {
	if c.sent {
		c.sent = false
		select {
		case c.meet <- struct{}{}:
		case <-c.meet:
		case <-time.After(5 * time.Second):
			return 0, errors.New("the read's other segment never went in flight")
		}
	}
	return c.Conn.Read(p)
}

// meetDialer is a DialData whose connections rendezvous pairwise.
func meetDialer() func(ctx context.Context, addr string) (net.Conn, error) {
	meet := make(chan struct{})
	return func(ctx context.Context, addr string) (net.Conn, error) {
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		return &meetConn{Conn: conn, meet: meet}, nil
	}
}

// halves answers every Select with two flows from the first candidate:
// a split the real Flowserver never produces (it excludes the first
// subflow's replica from the second), but one the client must survive,
// and the one that puts both segments on a single dataserver.
type halves struct {
	next     atomic.Uint64
	finished atomic.Int64
}

func (h *halves) SelectReplicaAndPath(req flowserver.Request) ([]flowserver.Assignment, error) {
	as := make([]flowserver.Assignment, 2)
	for i := range as {
		as[i] = flowserver.Assignment{
			FlowID:      flowserver.FlowID(h.next.Add(1)),
			Replica:     req.Replicas[0],
			Path:        topology.Path{0},
			Bits:        req.Bits / 2,
			EstimatedBw: 1,
		}
	}
	return as, nil
}

func (h *halves) SelectWritePipeline(topology.NodeID, []topology.NodeID, float64) ([]flowserver.Assignment, error) {
	return nil, errors.New("halves: reads only")
}

func (h *halves) FlowFinished(flowserver.FlowID) { h.finished.Add(1) }

// startHalves serves a halves Flowserver and its one-shard directory.
func startHalves(t *testing.T, tc *testCluster) (*halves, string) {
	t.Helper()
	h := &halves{}
	srv := wire.NewServer()
	if err := flowserver.RegisterRPC(srv, h, tc.topo, nil); err != nil {
		t.Fatal(err)
	}
	dir, err := flowctl.NewDirectory(tc.topo.Config().Pods, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := flowctl.RegisterDirectoryRPC(srv, dir, func() float64 { return 0 }); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	if _, err := dir.Heartbeat(0, ln.Addr().String(), 0, math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	return h, ln.Addr().String()
}

// TestSplitReadsShareOneServer puts both segments of a split read on the
// same dataserver at the same time, twice: the first read dials two
// connections, the second finds both in the pool, and neither mixes the
// segments' bytes.
func TestSplitReadsShareOneServer(t *testing.T) {
	for _, tcase := range []struct {
		name   string
		strong bool // §3.4: body from any replica, tail from the primary; else a Flowserver two-way split
	}{
		{"strong-consistency body and tail", true},
		{"flowserver two-way split", false},
	} {
		t.Run(tcase.name, func(t *testing.T) {
			tc := defaultCluster(t)
			ctx := context.Background()
			writer := newClient(t, tc, clientHost(tc), false, Sequential)
			// One replica: wherever a segment goes, it goes there.
			if _, err := writer.Create(ctx, "shared", nameserver.CreateOptions{ChunkSize: 64, Replication: 1}); err != nil {
				t.Fatal(err)
			}
			payload := appendPattern(64*3 + 10)
			if _, err := writer.Append(ctx, "shared", payload); err != nil {
				t.Fatal(err)
			}

			reg := obs.NewRegistry()
			opts := Options{
				NameserverAddr: tc.nsAddr,
				FlowserverAddr: tc.fsAddr,
				Host:           clientHost(tc),
				Consistency:    Sequential,
				Rand:           rand.New(rand.NewSource(3)),
				DialData:       meetDialer(),
				Metrics:        reg,
			}
			var fake *halves
			if tcase.strong {
				opts.Consistency = Strong
			} else {
				fake, opts.FlowserverAddr = startHalves(t, tc)
			}
			c, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })

			for pass := 0; pass < 2; pass++ {
				got, err := c.ReadAt(ctx, "shared", 0, int64(len(payload)))
				if err != nil {
					t.Fatalf("pass %d: %v", pass, err)
				}
				if !bytes.Equal(got, payload) {
					t.Fatalf("pass %d: split read returned the wrong bytes", pass)
				}
			}
			snap := reg.Snapshot().Counters
			if d, r := snap["client.data_dials"], snap["client.data_reuses"]; d != 2 || r != 2 {
				t.Errorf("two split reads: %d dials, %d reuses; want 2 and 2", d, r)
			}
			if n := snap["client.data_redials"] + snap["client.read_attempts_err"] + snap["client.reads_degraded"]; n != 0 {
				t.Errorf("fault paths ticked %d times on a fault-free read", n)
			}
			if fake == nil {
				return
			}
			// Releases ride the next Select (the fake counts its Done like
			// a lone fs.Finished); whatever is still queued, Close sends.
			c.Close()
			if n := fake.finished.Load(); n != 4 {
				t.Errorf("%d of 4 flows released after Close", n)
			}
		})
	}
}
