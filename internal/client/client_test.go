package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/dataserver"
	"github.com/mayflower-dfs/mayflower/internal/flowctl"
	"github.com/mayflower-dfs/mayflower/internal/flowserver"
	"github.com/mayflower-dfs/mayflower/internal/kvstore"
	"github.com/mayflower-dfs/mayflower/internal/nameserver"
	"github.com/mayflower-dfs/mayflower/internal/rpc"
	"github.com/mayflower-dfs/mayflower/internal/topology"
	"github.com/mayflower-dfs/mayflower/internal/wire"
)

// testCluster is a full in-process Mayflower deployment: nameserver,
// Flowserver, and a dataserver on a subset of topology hosts.
type testCluster struct {
	topo    *topology.Topology
	nsSvc   *nameserver.Service
	nsAddr  string
	fsSrv   *flowserver.Server
	fsAddr  string
	servers map[string]*dataserver.Server // host name → server
	assigns *assignCounter
}

type assignCounter struct {
	mu sync.Mutex
	n  int
	// perSelect records how many assignments each Select produced.
	split int
}

// startCluster boots the deployment. dataserverHosts selects which
// topology hosts run dataservers.
func startCluster(t *testing.T, topoCfg topology.Config, dataserverHosts []topology.NodeID, multiReplica bool) *testCluster {
	t.Helper()
	topo, err := topology.New(topoCfg)
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{topo: topo, servers: make(map[string]*dataserver.Server), assigns: &assignCounter{}}

	// Nameserver.
	store, err := kvstore.Open(t.TempDir(), kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	tc.nsSvc, err = nameserver.NewService(store, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	nsSrv := wire.NewServer()
	if err := nameserver.RegisterRPC(nsSrv, tc.nsSvc); err != nil {
		t.Fatal(err)
	}
	nsLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go nsSrv.Serve(nsLn)
	t.Cleanup(func() { nsSrv.Close() })
	tc.nsAddr = nsLn.Addr().String()

	// Flow control plane: one shard, serving the selection surface and
	// the shard directory on one address, as a default deployment does.
	shard, err := flowctl.NewShard(topo, flowctl.ShardConfig{Shards: 1, MultiReplica: multiReplica})
	if err != nil {
		t.Fatal(err)
	}
	tc.fsSrv = shard.Server()
	fsWire := wire.NewServer()
	hooks := flowserver.Hooks(func(_ []flowserver.FlowID, as []flowserver.Assignment) {
		tc.assigns.mu.Lock()
		for _, a := range as {
			if !a.Local() {
				tc.assigns.n++
			}
		}
		tc.assigns.mu.Unlock()
	})
	if err := flowctl.RegisterShardRPC(fsWire, shard, hooks); err != nil {
		t.Fatal(err)
	}
	dir, err := flowctl.NewDirectory(topoCfg.Pods, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := flowctl.RegisterDirectoryRPC(fsWire, dir, func() float64 { return 0 }); err != nil {
		t.Fatal(err)
	}
	fsLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go fsWire.Serve(fsLn)
	t.Cleanup(func() { fsWire.Close() })
	tc.fsAddr = fsLn.Addr().String()
	if _, err := dir.Heartbeat(0, tc.fsAddr, 0, math.Inf(1)); err != nil {
		t.Fatal(err)
	}

	// Dataservers.
	for i, h := range dataserverHosts {
		node := topo.Node(h)
		ds, err := dataserver.New(dataserver.Config{
			ID:   fmt.Sprintf("ds-%d", i),
			Root: t.TempDir(),
			Host: node.Name,
			Pod:  node.Pod,
			Rack: node.Rack,
		})
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
		if err := ds.Start(ctlLn, dataLn, tc.nsAddr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ds.Close() })
		tc.servers[node.Name] = ds
	}
	return tc
}

// waitDrained waits for the Flowserver's model to empty: a release is
// queued on the stub that issued its flow and arrives with that stub's
// next Select, or alone a linger later.
func (tc *testCluster) waitDrained(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); tc.fsSrv.NumFlows() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("flowserver still tracks %d flows", tc.fsSrv.NumFlows())
		}
	}
}

// smallTopo is 2 pods × 2 racks × 2 hosts.
func smallTopo() topology.Config {
	return topology.Config{
		Pods: 2, RacksPerPod: 2, HostsPerRack: 2, AggsPerPod: 2, Cores: 2,
		EdgeLinkBps: topology.Mbps(100), EdgeAggLinkBps: topology.Mbps(100),
		AggCoreLinkBps: topology.Mbps(100),
	}
}

func defaultCluster(t *testing.T) *testCluster {
	cfg := smallTopo()
	topo, err := topology.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Dataservers on six hosts; clients run on the remaining two.
	hosts := topo.Hosts()
	return startCluster(t, cfg, hosts[:6], false)
}

func newClient(t *testing.T, tc *testCluster, host string, withFS bool, mode Consistency) *Client {
	t.Helper()
	opts := Options{
		NameserverAddr: tc.nsAddr,
		Host:           host,
		Consistency:    mode,
		Rand:           rand.New(rand.NewSource(3)),
	}
	if withFS {
		opts.FlowserverAddr = tc.fsAddr
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func clientHost(tc *testCluster) string {
	hosts := tc.topo.Hosts()
	return tc.topo.Node(hosts[len(hosts)-1]).Name
}

func TestCreateAppendReadDelete(t *testing.T) {
	tc := defaultCluster(t)
	c := newClient(t, tc, clientHost(tc), true, Sequential)
	ctx := context.Background()

	info, err := c.Create(ctx, "docs/readme", nameserver.CreateOptions{ChunkSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Replicas) != 3 {
		t.Fatalf("replicas = %d", len(info.Replicas))
	}

	payload := bytes.Repeat([]byte("mayflower "), 20) // 200 bytes, 4 chunks
	size, err := c.Append(ctx, "docs/readme", payload)
	if err != nil {
		t.Fatal(err)
	}
	if size != 200 {
		t.Fatalf("size = %d, want 200", size)
	}

	got, err := c.ReadAll(ctx, "docs/readme")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("ReadAll returned wrong bytes")
	}

	// Ranged read crossing chunk boundaries.
	got, err = c.ReadAt(ctx, "docs/readme", 60, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload[60:70]) {
		t.Fatalf("ReadAt = %q, want %q", got, payload[60:70])
	}

	if err := c.Delete(ctx, "docs/readme"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadAll(ctx, "docs/readme"); !errors.Is(err, nameserver.ErrNotFound) {
		t.Errorf("ReadAll after delete err = %v", err)
	}
	// Every dataserver dropped the chunks.
	for host, ds := range tc.servers {
		_ = host
		cc := rpc.NewPeer(ds.ControlAddr(), rpc.Options{})
		var recs []nameserver.FileRecord
		if err := cc.Call(ctx, string(dataserver.MethodListFiles), struct{}{}, &recs); err != nil {
			t.Fatal(err)
		}
		cc.Close()
		if len(recs) != 0 {
			t.Errorf("dataserver %s still holds %d files", host, len(recs))
		}
	}
	tc.waitDrained(t)
}

func TestReadWithoutFlowserver(t *testing.T) {
	tc := defaultCluster(t)
	c := newClient(t, tc, clientHost(tc), false, Sequential)
	ctx := context.Background()

	if _, err := c.Create(ctx, "nofs", nameserver.CreateOptions{ChunkSize: 32}); err != nil {
		t.Fatal(err)
	}
	payload := []byte("reads fall back to a random replica")
	if _, err := c.Append(ctx, "nofs", payload); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadAll(ctx, "nofs")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("wrong bytes")
	}
}

func TestStrongConsistencyReads(t *testing.T) {
	tc := defaultCluster(t)
	c := newClient(t, tc, clientHost(tc), true, Strong)
	ctx := context.Background()

	if _, err := c.Create(ctx, "strong", nameserver.CreateOptions{ChunkSize: 16}); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("ab"), 25) // 50 bytes: chunks 16/16/16/2
	if _, err := c.Append(ctx, "strong", payload); err != nil {
		t.Fatal(err)
	}
	// Whole-file read spans immutable chunks plus the tail.
	got, err := c.ReadAll(ctx, "strong")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("wrong bytes under strong consistency")
	}
	// A tail-only read.
	got, err = c.ReadAt(ctx, "strong", 48, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload[48:]) {
		t.Fatal("wrong tail bytes")
	}
}

func TestAppendVisibleToOtherClients(t *testing.T) {
	tc := defaultCluster(t)
	writer := newClient(t, tc, clientHost(tc), true, Sequential)
	hosts := tc.topo.Hosts()
	readerHost := tc.topo.Node(hosts[len(hosts)-2]).Name
	reader := newClient(t, tc, readerHost, true, Sequential)
	ctx := context.Background()

	if _, err := writer.Create(ctx, "shared", nameserver.CreateOptions{ChunkSize: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Append(ctx, "shared", []byte("first")); err != nil {
		t.Fatal(err)
	}
	got, err := reader.ReadAll(ctx, "shared")
	if err != nil || string(got) != "first" {
		t.Fatalf("ReadAll = %q, %v", got, err)
	}
	// The reader's metadata is now cached; a later append must still be
	// visible because size is revalidated against the dataserver.
	if _, err := writer.Append(ctx, "shared", []byte(" second")); err != nil {
		t.Fatal(err)
	}
	got, err = reader.ReadAll(ctx, "shared")
	if err != nil || string(got) != "first second" {
		t.Fatalf("ReadAll after append = %q, %v", got, err)
	}
}

func TestReadBeyondSizeFails(t *testing.T) {
	tc := defaultCluster(t)
	c := newClient(t, tc, clientHost(tc), true, Sequential)
	ctx := context.Background()
	if _, err := c.Create(ctx, "short", nameserver.CreateOptions{ChunkSize: 64}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(ctx, "short", []byte("12345")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadAt(ctx, "short", 3, 10); err == nil {
		t.Error("read beyond size succeeded")
	}
	if _, err := c.ReadAt(ctx, "short", -1, 2); err == nil {
		t.Error("negative offset accepted")
	}
	if got, err := c.ReadAt(ctx, "short", 2, 0); err != nil || got != nil {
		t.Errorf("zero-length read = %v, %v", got, err)
	}
}

func TestReadFailoverToPrimary(t *testing.T) {
	tc := defaultCluster(t)
	c := newClient(t, tc, clientHost(tc), false, Sequential)
	ctx := context.Background()

	info, err := c.Create(ctx, "failover", nameserver.CreateOptions{ChunkSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 1000)
	if _, err := c.Append(ctx, "failover", payload); err != nil {
		t.Fatal(err)
	}
	// Kill both secondary replicas; every read must fail over to the
	// primary regardless of which replica the client picks.
	for _, rep := range info.Replicas[1:] {
		tc.servers[rep.Host].Close()
	}
	for i := 0; i < 5; i++ {
		got, err := c.ReadAll(ctx, "failover")
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("read %d returned wrong bytes", i)
		}
	}
}

func TestMultiReplicaSplitRead(t *testing.T) {
	// Client pod 0; replicas in pods 1 and 2 behind disjoint 10 Mbps
	// uplinks while the client's downlink is 100 Mbps: the Flowserver
	// should split reads across both replicas (§4.3).
	cfg := topology.Config{
		Pods: 3, RacksPerPod: 1, HostsPerRack: 2, AggsPerPod: 2, Cores: 2,
		EdgeLinkBps: topology.Mbps(100), EdgeAggLinkBps: topology.Mbps(10),
		AggCoreLinkBps: topology.Mbps(10),
	}
	topo, err := topology.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dsHosts := []topology.NodeID{
		topo.HostAt(1, 0, 0), topo.HostAt(2, 0, 0),
	}
	tc := startCluster(t, cfg, dsHosts, true)
	c := newClient(t, tc, topo.Node(topo.HostAt(0, 0, 0)).Name, true, Sequential)
	ctx := context.Background()

	if _, err := c.Create(ctx, "split", nameserver.CreateOptions{ChunkSize: 1 << 20, Replication: 2}); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 100*1000)
	for i := range payload {
		payload[i] = byte(i)
	}
	if _, err := c.Append(ctx, "split", payload); err != nil {
		t.Fatal(err)
	}

	got, err := c.ReadAll(ctx, "split")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("split read returned wrong bytes")
	}
	tc.assigns.mu.Lock()
	n := tc.assigns.n
	tc.assigns.mu.Unlock()
	if n < 2 {
		t.Errorf("expected a split read (>=2 assignments), saw %d", n)
	}
	tc.waitDrained(t)
}

func TestListAndStat(t *testing.T) {
	tc := defaultCluster(t)
	c := newClient(t, tc, clientHost(tc), true, Sequential)
	ctx := context.Background()

	for _, name := range []string{"a/1", "a/2", "b/1"} {
		if _, err := c.Create(ctx, name, nameserver.CreateOptions{ChunkSize: 64}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Append(ctx, "a/1", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	files, err := c.List(ctx, "a/")
	if err != nil || len(files) != 2 {
		t.Fatalf("List = %v, %v", files, err)
	}
	st, err := c.Stat(ctx, "a/1")
	if err != nil {
		t.Fatal(err)
	}
	if st.SizeBytes != 5 {
		t.Errorf("Stat size = %d, want 5", st.SizeBytes)
	}
}

func TestLargeAppendSplits(t *testing.T) {
	tc := defaultCluster(t)
	c := newClient(t, tc, clientHost(tc), true, Sequential)
	ctx := context.Background()
	if _, err := c.Create(ctx, "large", nameserver.CreateOptions{ChunkSize: 6 << 20}); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, dataserver.MaxAppend+dataserver.MaxAppend/2)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	size, err := c.Append(ctx, "large", payload)
	if err != nil {
		t.Fatal(err)
	}
	if size != int64(len(payload)) {
		t.Fatalf("size = %d, want %d", size, len(payload))
	}
	got, err := c.ReadAll(ctx, "large")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("large append round trip failed")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("missing nameserver address accepted")
	}
	if _, err := New(Options{NameserverAddr: "127.0.0.1:1"}); err == nil {
		t.Error("dial to dead nameserver succeeded")
	}
}

func TestContextDeadlinePropagates(t *testing.T) {
	tc := defaultCluster(t)
	c := newClient(t, tc, clientHost(tc), true, Sequential)

	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	if _, err := c.Create(ctx, "deadline", nameserver.CreateOptions{}); err == nil {
		t.Error("expired context accepted")
	}
}
