package dataserver

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"math"
	"net"
	"sync"
	"testing"

	"github.com/mayflower-dfs/mayflower/internal/flowctl"
	"github.com/mayflower-dfs/mayflower/internal/flowserver"
	"github.com/mayflower-dfs/mayflower/internal/nameserver"
	"github.com/mayflower-dfs/mayflower/internal/rpc"
	"github.com/mayflower-dfs/mayflower/internal/topology"
	"github.com/mayflower-dfs/mayflower/internal/uuid"
	"github.com/mayflower-dfs/mayflower/internal/wire"
)

func statSize(t *testing.T, cc *rpc.Peer, c *cluster) int64 {
	t.Helper()
	var st StatReply
	if err := cc.Call(context.Background(), string(MethodStat), FileIDArgs{FileID: c.info.ID}, &st); err != nil {
		t.Fatal(err)
	}
	return st.SizeBytes
}

// TestAppendSeqDedupe re-sends an acknowledged piece under the same
// sequence number and checks no replica appends it twice.
func TestAppendSeqDedupe(t *testing.T) {
	c := startCluster(t, 3, 64)
	payload := []byte("hello replicated world")
	args := AppendArgs{FileID: c.info.ID, Data: payload, Seq: 7}

	var reply AppendReply
	if err := appendVia(c.ctl[0], args, &reply); err != nil {
		t.Fatal(err)
	}
	// A lost ack makes the client re-send the identical piece.
	if err := appendVia(c.ctl[0], args, &reply); err != nil {
		t.Fatal(err)
	}
	want := int64(len(payload))
	if reply.SizeBytes != want {
		t.Errorf("size after re-send = %d, want %d", reply.SizeBytes, want)
	}
	for i, cc := range c.ctl {
		if got := statSize(t, cc, c); got != want {
			t.Errorf("replica %d size = %d, want %d", i, got, want)
		}
	}
	if st := c.servers[0].WriteStats(); st.AppendDedups != 1 {
		t.Errorf("AppendDedups = %d, want 1", st.AppendDedups)
	}
}

// TestAppendSeqRetryHealsReplicas simulates the dangerous half-applied
// state — the primary applied a piece locally and recorded its sequence,
// but the relay never ran — and checks the client's retry lands at the
// recorded offset (no duplicate on the primary) while the relay brings
// the replicas up to date.
func TestAppendSeqRetryHealsReplicas(t *testing.T) {
	c := startCluster(t, 3, 64)
	payload := []byte("piece that lost its relay")

	fs0, err := c.servers[0].store.get(c.info.ID)
	if err != nil {
		t.Fatal(err)
	}
	offset := fs0.localSize()
	fs0.recordSeq(42, offset)
	if _, err := c.servers[0].store.appendAt(c.info.ID, offset, payload); err != nil {
		t.Fatal(err)
	}

	var reply AppendReply
	if err := appendVia(c.ctl[0], AppendArgs{FileID: c.info.ID, Data: payload, Seq: 42}, &reply); err != nil {
		t.Fatal(err)
	}
	want := int64(len(payload))
	if reply.SizeBytes != want {
		t.Errorf("size after retry = %d, want %d (primary must not duplicate)", reply.SizeBytes, want)
	}
	for i, cc := range c.ctl {
		if got := statSize(t, cc, c); got != want {
			t.Errorf("replica %d size = %d, want %d", i, got, want)
		}
	}
}

// TestPromotedPrimaryInheritsSeqDedupe kills the primary after a fully
// relayed append and checks a replica promoted in its place recognizes
// the piece's sequence number: the client's re-send must not duplicate.
func TestPromotedPrimaryInheritsSeqDedupe(t *testing.T) {
	c := startCluster(t, 3, 64)
	payload := []byte("acked everywhere, ack lost")
	args := AppendArgs{FileID: c.info.ID, Data: payload, Seq: 5}

	var reply AppendReply
	if err := appendVia(c.ctl[0], args, &reply); err != nil {
		t.Fatal(err)
	}
	if err := c.servers[0].Close(); err != nil {
		t.Fatal(err)
	}

	// Promote replica 1 the way repair does: rewrite the metadata with the
	// survivors and the new primary first.
	info := c.info
	info.Replicas = []nameserver.ReplicaLoc{c.info.Replicas[1], c.info.Replicas[2]}
	if err := c.servers[1].store.updateInfo(info); err != nil {
		t.Fatal(err)
	}
	if err := c.servers[2].store.updateInfo(info); err != nil {
		t.Fatal(err)
	}

	if err := appendVia(c.ctl[1], args, &reply); err != nil {
		t.Fatal(err)
	}
	want := int64(len(payload))
	if reply.SizeBytes != want {
		t.Errorf("size after failover re-send = %d, want %d", reply.SizeBytes, want)
	}
	if st := c.servers[1].WriteStats(); st.AppendDedups != 1 {
		t.Errorf("promoted primary AppendDedups = %d, want 1", st.AppendDedups)
	}
}

// startFlowserver serves a one-shard flow control plane and returns the
// shard's model for assertions.
func startFlowserver(t *testing.T, topo *topology.Topology) (*flowserver.Server, string) {
	t.Helper()
	shard, err := flowctl.NewShard(topo, flowctl.ShardConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	return shard.Server(), serveFlowPlane(t, topo.Config().Pods, func(srv *wire.Server) error {
		return flowctl.RegisterShardRPC(srv, shard, nil)
	})
}

// serveFlowPlane serves the selection surface that register installs
// beside a shard directory naming it the owner of every pod, on one
// ephemeral port, as a default deployment does.
func serveFlowPlane(t *testing.T, pods int, register func(*wire.Server) error) string {
	t.Helper()
	srv := wire.NewServer()
	if err := register(srv); err != nil {
		t.Fatal(err)
	}
	dir, err := flowctl.NewDirectory(pods, 1)
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
	return ln.Addr().String()
}

// startScheduledCluster is startCluster with the dataservers placed on
// real topology hosts and pointed at a live Flowserver.
func startScheduledCluster(t *testing.T, fsAddr string, hosts []string) *cluster {
	t.Helper()
	c := &cluster{}
	var replicas []nameserver.ReplicaLoc
	for i, host := range hosts {
		id := []string{"ds-0", "ds-1", "ds-2"}[i]
		s, err := New(Config{ID: id, Root: t.TempDir(), Host: host, FlowserverAddr: fsAddr})
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
		if err := s.Start(ctlLn, dataLn, ""); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		c.servers = append(c.servers, s)
		replicas = append(replicas, nameserver.ReplicaLoc{
			ServerID:    id,
			ControlAddr: s.ControlAddr(),
			DataAddr:    s.DataAddr(),
			Host:        host,
		})
		cc := rpc.NewPeer(s.ControlAddr(), rpc.Options{})
		t.Cleanup(func() { cc.Close() })
		c.ctl = append(c.ctl, cc)
	}
	c.info = nameserver.FileInfo{
		ID:        uuid.MustNew(),
		Name:      "scheduled-file",
		ChunkSize: 64,
		Replicas:  replicas,
	}
	var out struct{}
	if err := c.ctl[0].Call(context.Background(), string(MethodPrepare),
		PrepareArgs{Info: c.info, Relay: true}, &out); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestAppendRelayUsesFlowserver checks the primary registers its relay
// hops with the Flowserver, orders them from its schedule, and releases
// every flow once the append is acknowledged (queued, so the model drops
// them a linger later).
func TestAppendRelayUsesFlowserver(t *testing.T) {
	topo, err := topology.New(topology.Config{
		Pods: 1, RacksPerPod: 2, HostsPerRack: 2, AggsPerPod: 2, Cores: 1,
		EdgeLinkBps: 1e9, EdgeAggLinkBps: 1e9, AggCoreLinkBps: 1e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	fs, fsAddr := startFlowserver(t, topo)
	hosts := []string{
		topo.Node(topo.HostAt(0, 0, 0)).Name,
		topo.Node(topo.HostAt(0, 0, 1)).Name,
		topo.Node(topo.HostAt(0, 1, 0)).Name,
	}
	c := startScheduledCluster(t, fsAddr, hosts)

	payload := bytes.Repeat([]byte("w"), 100)
	var reply AppendReply
	if err := appendVia(c.ctl[0], AppendArgs{FileID: c.info.ID, Data: payload, Seq: 1}, &reply); err != nil {
		t.Fatal(err)
	}
	for i, cc := range c.ctl {
		if got := statSize(t, cc, c); got != int64(len(payload)) {
			t.Errorf("replica %d size = %d, want %d", i, got, len(payload))
		}
	}
	if st := c.servers[0].WriteStats(); st.RelaysScheduled != 1 || st.RelaysStatic != 0 {
		t.Errorf("WriteStats = %+v, want one scheduled relay", st)
	}
	if got := fs.Counters().WriteSelections; got != 1 {
		t.Errorf("flowserver WriteSelections = %d, want 1", got)
	}
	waitGauge(t, "flows the flowserver tracks after the append", func() int64 { return int64(fs.NumFlows()) }, 0)
}

// TestAppendRelayReleasesEveryFlow: a release the controller fails must
// not stop the ones after it — a relay flow whose fs.Finished is skipped
// loads the model's links until the polls prove it over.
func TestAppendRelayReleasesEveryFlow(t *testing.T) {
	var mu sync.Mutex
	var finished []flowserver.FlowID
	fsAddr := serveFlowPlane(t, 1, func(srv *wire.Server) error {
		return errors.Join(
			flowserver.MethodSelectWrite.Handle(srv, func(_ context.Context, a flowserver.SelectWriteArgs) ([]flowserver.AssignmentDTO, error) {
				as := make([]flowserver.AssignmentDTO, len(a.TargetHosts))
				for i, h := range a.TargetHosts {
					as[i] = flowserver.AssignmentDTO{FlowID: flowserver.FlowID(i + 1), ReplicaHost: h, Bits: a.Bits, PathLen: 2}
				}
				return as, nil
			}),
			flowserver.MethodFinished.Handle(srv, func(_ context.Context, a flowserver.FinishedArgs) (struct{}, error) {
				mu.Lock()
				defer mu.Unlock()
				finished = append(finished, a.FlowID)
				if a.FlowID == 1 {
					return struct{}{}, errors.New("release lost")
				}
				return struct{}{}, nil
			}),
		)
	})
	c := startScheduledCluster(t, fsAddr, []string{"h0", "h1", "h2"})
	var reply AppendReply
	if err := appendVia(c.ctl[0], AppendArgs{FileID: c.info.ID, Data: []byte("two relay hops"), Seq: 1}, &reply); err != nil {
		t.Fatal(err)
	}
	waitGauge(t, "releases sent", func() int64 { mu.Lock(); defer mu.Unlock(); return int64(len(finished)) }, 2)
	mu.Lock()
	defer mu.Unlock()
	if finished[0] != 1 || finished[1] != 2 {
		t.Errorf("fs.Finished saw flows %v, want [1 2]: the failed release of flow 1 must not strand flow 2", finished)
	}
}

// TestAppendRelayFallsBackStatic points the primary at a dead Flowserver
// and checks the append still succeeds in static order.
func TestAppendRelayFallsBackStatic(t *testing.T) {
	// Grab a port that refuses connections.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	c := startScheduledCluster(t, deadAddr, []string{"h0", "h1", "h2"})
	payload := []byte("degraded but durable")
	var reply AppendReply
	if err := appendVia(c.ctl[0], AppendArgs{FileID: c.info.ID, Data: payload, Seq: 1}, &reply); err != nil {
		t.Fatal(err)
	}
	for i, cc := range c.ctl {
		if got := statSize(t, cc, c); got != int64(len(payload)) {
			t.Errorf("replica %d size = %d, want %d", i, got, len(payload))
		}
	}
	if st := c.servers[0].WriteStats(); st.RelaysStatic != 1 || st.RelaysScheduled != 0 {
		t.Errorf("WriteStats = %+v, want one static relay", st)
	}
}

// recordingListener keeps every byte its server reads off the
// connections it accepts: server i's is what the session into server i —
// the client's into the primary, the primary's into each replica — put on
// the wire.
type recordingListener struct {
	net.Listener
	mu sync.Mutex
	in bytes.Buffer
}

func (l *recordingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	return recordingConn{conn, l}, err
}

type recordingConn struct {
	net.Conn
	l *recordingListener
}

func (c recordingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.mu.Lock()
	c.l.in.Write(p[:n])
	c.l.mu.Unlock()
	return n, err
}

// TestAppendPayloadCrossesRaw: a 256 KiB append costs each of its three
// sessions the payload, once and verbatim, plus under 1 KiB of envelope —
// not the 4/3 of it that base64 inside the JSON did — and the JSON has no
// field for it to fall back into.
func TestAppendPayloadCrossesRaw(t *testing.T) {
	var recs []*recordingListener
	c := startClusterOn(t, 3, 1<<20, func(ln net.Listener) net.Listener {
		recs = append(recs, &recordingListener{Listener: ln})
		return recs[len(recs)-1]
	})
	payload := make([]byte, 256<<10)
	testRand().Read(payload)
	for _, r := range recs {
		r.mu.Lock()
		r.in.Reset() // the prepare relay
		r.mu.Unlock()
	}
	var reply AppendReply
	if err := appendVia(c.ctl[0], AppendArgs{FileID: c.info.ID, Data: payload, Seq: 1}, &reply); err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		r.mu.Lock()
		got := bytes.Clone(r.in.Bytes())
		r.mu.Unlock()
		if len(got) >= len(payload)+1<<10 {
			t.Errorf("session into ds-%d carried %d bytes for a %d-byte payload, want under %d", i, len(got), len(payload), len(payload)+1<<10)
		}
		if !bytes.Contains(got, payload) {
			t.Errorf("session into ds-%d did not carry the payload verbatim", i)
		}
		if !bytes.Equal(readAll(t, c.servers[i], c.info.ID, 0, int64(len(payload))), payload) {
			t.Errorf("ds-%d stored something other than the payload", i)
		}
	}
	for _, args := range []any{AppendArgs{Data: payload[:8]}, AppendAtArgs{Data: payload[:8]}} {
		body, err := json.Marshal(args)
		if err != nil {
			t.Fatal(err)
		}
		var fields map[string]any
		if err := json.Unmarshal(body, &fields); err != nil {
			t.Fatal(err)
		}
		if _, ok := fields["data"]; ok || bytes.Contains(body, []byte(base64.StdEncoding.EncodeToString(payload[:8]))) {
			t.Errorf("%T still marshals its payload: %s", args, body)
		}
	}
}

// TestMixedAppendsKeepReplicasIdentical: writers on three files append
// 4 KiB, 256 KiB and 8 MiB pieces through one primary at once, so every
// crossing's receive buffer is recycled across files, sizes and replicas;
// each replica ends byte-identical to what was sent, and scrub is clean.
func TestMixedAppendsKeepReplicasIdentical(t *testing.T) {
	c := startCluster(t, 3, 1<<20)
	infos := []nameserver.FileInfo{c.info}
	for _, name := range []string{"mixed-1", "mixed-2"} {
		info := c.info
		info.ID, info.Name = uuid.MustNew(), name
		if err := c.ctl[0].Call(context.Background(), string(MethodPrepare), PrepareArgs{Info: info, Relay: true}, new(struct{})); err != nil {
			t.Fatal(err)
		}
		infos = append(infos, info)
	}
	sizes := []int{4 << 10, 256 << 10, MaxAppend, 256 << 10, 4 << 10}
	sent := make([][]byte, len(infos))
	var wg sync.WaitGroup
	for f, info := range infos {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, n := range sizes {
				piece := make([]byte, n)
				for j := range piece {
					piece[j] = byte(f*101 + i*37 + j*13 + j>>9)
				}
				sent[f] = append(sent[f], piece...)
				var reply AppendReply
				if err := appendVia(c.ctl[0], AppendArgs{FileID: info.ID, Data: piece, Seq: uint64(i + 1)}, &reply); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for f, info := range infos {
		for i, s := range c.servers {
			if got := readAll(t, s, info.ID, 0, int64(len(sent[f]))); !bytes.Equal(got, sent[f]) {
				t.Errorf("ds-%d's copy of %s differs from the %d bytes sent", i, info.Name, len(sent[f]))
			}
		}
	}
	for i, cc := range c.ctl {
		if faults, err := NewClient(cc).Scrub(context.Background()); err != nil || len(faults) != 0 {
			t.Errorf("ds-%d scrub: %v, %v; want clean", i, faults, err)
		}
	}
}
