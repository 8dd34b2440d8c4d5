package testbed

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/client"
	"github.com/mayflower-dfs/mayflower/internal/flowctl"
	"github.com/mayflower-dfs/mayflower/internal/flowserver"
	"github.com/mayflower-dfs/mayflower/internal/nameserver"
	"github.com/mayflower-dfs/mayflower/internal/obs"
	"github.com/mayflower-dfs/mayflower/internal/rpc"
	"github.com/mayflower-dfs/mayflower/internal/topology"
	"github.com/mayflower-dfs/mayflower/internal/wire"
)

// pinnedFile creates a single-replica file on the given host and fills
// it with n bytes.
func pinnedFile(t *testing.T, ctx context.Context, c *Cluster, name string, on topology.NodeID, n int) []byte {
	t.Helper()
	writer, err := c.Client(on)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Create(ctx, name, nameserver.CreateOptions{
		ChunkSize:         1 << 20,
		Replication:       1,
		PreferredReplicas: []string{c.ServerID(on)},
	}); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("mayflower!"), n/10)
	if _, err := writer.Append(ctx, name, payload); err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestDefaultClusterIsAOneShardPlane: a cluster booted without
// FlowShards runs the same directory-routed plane as a sharded one —
// its one control-plane address answers fd.Lookup and fs.Select — and
// its only shard cannot be killed (there is nobody to fail over to).
func TestDefaultClusterIsAOneShardPlane(t *testing.T) {
	cluster, err := NewCluster(ClusterConfig{Mode: ModeMayflower, Topo: tinyTopo(), Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if p := cluster.Plane(); p.Shard(0) == nil || p.Shard(1) != nil {
		t.Fatal("default cluster does not run exactly one flow shard")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	pool := rpc.NewPool(rpc.Options{})
	defer pool.Close()
	peer := pool.Peer(cluster.FlowserverAddr())

	for pod := 0; pod < cluster.Topo.Config().Pods; pod++ {
		rep, err := flowctl.NewDirectoryClient(peer).Lookup(ctx, pod)
		if err != nil {
			t.Fatalf("fd.Lookup(%d) on FlowserverAddr: %v", pod, err)
		}
		if rep.Shard != 0 || rep.Addr != cluster.FlowserverAddr() {
			t.Errorf("pod %d routes to shard %d at %q, want shard 0 at %q", pod, rep.Shard, rep.Addr, cluster.FlowserverAddr())
		}
	}
	name := func(h topology.NodeID) string { return cluster.Topo.Node(h).Name }
	fs := flowserver.NewRPCClient(peer)
	as, err := fs.Select(ctx, flowserver.SelectArgs{
		ClientHost:   name(cluster.Topo.HostAt(0, 0, 0)),
		ReplicaHosts: []string{name(cluster.Topo.HostAt(1, 0, 0))},
		Bits:         8e6,
	})
	if err != nil || len(as) != 1 {
		t.Fatalf("fs.Select on FlowserverAddr = %v, %v", as, err)
	}
	if err := fs.Finished(ctx, as[0].FlowID); err != nil {
		t.Fatal(err)
	}
	if err := cluster.KillFlowShard(0); err == nil {
		t.Error("killed the only flow shard")
	}
}

// TestSwitchTablesDrain: finishing a flow removes its rules, so after a
// run of sequential reads no switch holds a flow entry and a stats poll
// ships nothing — not one entry per flow the cluster has ever scheduled.
func TestSwitchTablesDrain(t *testing.T) {
	cluster, err := NewCluster(ClusterConfig{Mode: ModeMayflower, Topo: tinyTopo(), Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	payload := pinnedFile(t, ctx, cluster, "drain", cluster.Topo.HostAt(0, 0, 0), 64<<10)

	reader, err := cluster.Client(cluster.Topo.HostAt(1, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	const reads = 25
	for i := 0; i < reads; i++ {
		got, err := reader.ReadAll(ctx, "drain")
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("read %d: %d bytes, %v", i, len(got), err)
		}
	}

	// Rule removal is fire-and-forget, like OpenFlow's: give the last
	// FlowMods a moment to land.
	deadline := time.Now().Add(5 * time.Second)
	for {
		rules := switchRules(cluster)
		counters := len(cluster.ofSwitches.FlowStats())
		if rules == 0 && counters == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after %d sequential reads, nothing in flight: %d flow rules installed, stats poll ships %d entries", reads, rules, counters)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestColocatedReplicaReadIsScheduled: a read whose replica shares the
// client's host gets a local assignment from fs.Select — no bandwidth,
// the model's +Inf has no wire encoding — instead of an RPC error that
// silently degrades the read.
func TestColocatedReplicaReadIsScheduled(t *testing.T) {
	cluster, err := NewCluster(ClusterConfig{Mode: ModeMayflower, Topo: tinyTopo(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	host := cluster.Topo.HostAt(0, 1, 0)
	payload := pinnedFile(t, ctx, cluster, "colocated", host, 32<<10)

	reg := obs.NewRegistry()
	reader, err := cluster.NewClient(host, func(o *client.Options) { o.Metrics = reg })
	if err != nil {
		t.Fatal(err)
	}
	got, err := reader.ReadAll(ctx, "colocated")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read: %d bytes, %v", len(got), err)
	}
	counters := reg.Snapshot().Counters
	if n := counters["client.reads_degraded"]; n != 0 {
		t.Errorf("client.reads_degraded = %d on a co-located read, want 0", n)
	}
	// A local assignment registered no flow, so there is none to release:
	// the read costs one controller round trip, not two.
	if sel, fin := counters["client.rpc.method.fs.Select.calls"], counters["client.rpc.method.fs.Finished.calls"]; sel != 1 || fin != 0 {
		t.Errorf("co-located read made %d fs.Select and %d fs.Finished calls, want 1 and 0", sel, fin)
	}
}

// TestFaultFreeRunNeverRedials drives the bench workloads' four shapes in
// miniature — warm small reads, whole-file reads, appends each followed
// by another client's tail read, concurrent readers — and checks the data
// pool the way the benchmark cannot (bench/ may only watch from outside):
// reads reuse connections, and with no fault injected none is ever found
// dead (client.data_redials), failed or failed over.
func TestFaultFreeRunNeverRedials(t *testing.T) {
	cluster, err := NewCluster(ClusterConfig{Mode: ModeMayflower, Topo: tinyTopo(), Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	payload := pinnedFile(t, ctx, cluster, "warm", cluster.Topo.HostAt(0, 0, 0), 256<<10)

	var regs []*obs.Registry
	newReader := func(h topology.NodeID) *client.Client {
		reg := obs.NewRegistry()
		regs = append(regs, reg)
		cl, err := cluster.NewClient(h, func(o *client.Options) { o.Metrics = reg })
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	reader, beside := newReader(cluster.Topo.HostAt(1, 1, 0)), newReader(cluster.Topo.HostAt(1, 0, 1))

	for i := int64(0); i < 50; i++ { // read_small_ctl
		got, err := reader.ReadAt(ctx, "warm", i*4096, 4096)
		if err != nil || !bytes.Equal(got, payload[i*4096:(i+1)*4096]) {
			t.Fatalf("small read %d: %d bytes, %v", i, len(got), err)
		}
	}
	for i := 0; i < 3; i++ { // read_large_stream
		got, err := reader.ReadAll(ctx, "warm")
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("whole-file read %d: %d bytes, %v", i, len(got), err)
		}
	}
	if _, err := reader.Create(ctx, "grows", nameserver.CreateOptions{Replication: 3}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ { // append_beside_reads
		size, err := reader.Append(ctx, "grows", payload[:32<<10])
		if err != nil {
			t.Fatal(err)
		}
		got, err := beside.ReadAt(ctx, "grows", size-4096, 4096)
		if err != nil || !bytes.Equal(got, payload[(32<<10)-4096:32<<10]) {
			t.Fatalf("tail read after append %d: %d bytes, %v", i, len(got), err)
		}
	}
	errs := make(chan error, 8)
	for i := 0; i < cap(errs); i++ { // fabric_contended
		cl := []*client.Client{reader, beside}[i%2]
		go func() {
			got, err := cl.ReadAll(ctx, "warm")
			if err == nil && !bytes.Equal(got, payload) {
				err = errors.New("concurrent read returned the wrong bytes")
			}
			errs <- err
		}()
	}
	for i := 0; i < cap(errs); i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	for i, reg := range regs {
		c := reg.Snapshot().Counters
		for _, name := range []string{"client.data_redials", "client.read_attempts_err", "client.failover_passes", "client.reads_degraded"} {
			if c[name] != 0 {
				t.Errorf("client %d: %s = %d on a fault-free run, want 0", i, name, c[name])
			}
		}
		if c["client.data_reuses"] == 0 {
			t.Errorf("client %d: %d dials and no reuse: reads are not riding pooled connections", i, c["client.data_dials"])
		}
	}
}

// releaseBound is how long a test gives released flows to leave the
// plane: far beyond a linger and a round trip, and short of the polls'
// safety net (StallPolls polls of the default 250 ms past the horizon),
// so a drain inside it is the releases' doing.
const releaseBound = 500 * time.Millisecond

// switchRules counts the flow entries installed across every switch.
func switchRules(c *Cluster) int {
	n := 0
	for _, sw := range c.switches {
		n += sw.NumFlows()
	}
	return n
}

// waitDrained waits up to within for the plane to forget every flow: each
// shard's model, the emulated fabric and every switch table.
func waitDrained(t *testing.T, c *Cluster, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		models := 0 // the ECMP modes run no plane
		if p := c.Plane(); p != nil {
			models = p.NumFlows()
		}
		fabric, rules := c.Net.NumFlows(), switchRules(c)
		if models+fabric+rules == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after %v the models hold %d flows, emunet %d, the switches %d rules; want none", within, models, fabric, rules)
		}
		time.Sleep(time.Millisecond)
	}
}

// killer stands in for a client's process: once kill runs, every
// connection the client opened is severed and no new one opens, so
// nothing it still meant to send — a release included — ever arrives.
type killer struct {
	mu    sync.Mutex
	dead  bool
	conns []io.Closer
}

var errKilled = errors.New("client killed")

func (k *killer) track(c io.Closer) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.dead {
		c.Close()
		return errKilled
	}
	k.conns = append(k.conns, c)
	return nil
}

func (k *killer) dialData(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err == nil {
		err = k.track(conn)
	}
	return conn, err
}

func (k *killer) dialControl(ctx context.Context, addr string) (*wire.Client, error) {
	c, err := rpc.DialSession(ctx, addr)
	if err == nil {
		err = k.track(c)
	}
	return c, err
}

func (k *killer) kill() {
	k.mu.Lock()
	k.dead = true
	conns := k.conns
	k.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// TestGhostFlowsRetire: a flow whose release never comes leaves each
// shard's model, emunet and every switch table within its freeze horizon
// plus StallPolls polls, because the polls prove it over.
func TestGhostFlowsRetire(t *testing.T) {
	cfg := tinyTopo()
	cfg.EdgeLinkBps, cfg.EdgeAggLinkBps, cfg.AggCoreLinkBps = topology.Mbps(8), topology.Mbps(8), topology.Mbps(8)
	const size = 256 << 10
	horizon := time.Duration(float64(size*8) / topology.Mbps(8) * float64(time.Second)) // the read at the bottleneck's full rate
	within := horizon + (flowserver.StallPolls+2)*statsInterval + time.Second

	for _, tc := range []struct {
		name  string
		ghost func(t *testing.T, ctx context.Context, c *Cluster)
	}{
		{"a client selects and never releases", func(t *testing.T, ctx context.Context, c *Cluster) {
			pool := rpc.NewPool(rpc.Options{})
			defer pool.Close()
			name := func(h topology.NodeID) string { return c.Topo.Node(h).Name }
			as, err := flowserver.NewRPCClient(pool.Peer(c.FlowserverAddr())).Select(ctx, flowserver.SelectArgs{
				ClientHost:   name(c.Topo.HostAt(0, 0, 0)),
				ReplicaHosts: []string{name(c.Topo.HostAt(1, 0, 0))},
				Bits:         size * 8,
			})
			if err != nil || len(as) != 1 || as[0].Local {
				t.Fatalf("Select = %v, %v; want one network flow", as, err)
			}
			if n := c.Net.NumFlows(); n != 1 {
				t.Fatalf("emunet holds %d flows after the Select, want the ghost", n)
			}
		}},
		{"a reader is killed mid-transfer", func(t *testing.T, ctx context.Context, c *Cluster) {
			pinnedFile(t, ctx, c, "victim", c.Topo.HostAt(0, 0, 0), size)
			var k killer
			reader, err := c.NewClient(c.Topo.HostAt(1, 0, 0), func(o *client.Options) {
				o.DialData, o.DialControl = k.dialData, k.dialControl
			})
			if err != nil {
				t.Fatal(err)
			}
			errc := make(chan error, 1)
			go func() {
				_, err := reader.ReadAll(ctx, "victim")
				errc <- err
			}()
			for moving := false; !moving; time.Sleep(time.Millisecond) {
				for _, st := range c.ofSwitches.FlowStats() {
					moving = moving || st.TransferredBits > 0
				}
			}
			k.kill()
			if err := <-errc; err == nil {
				t.Fatal("a read whose client was killed mid-transfer succeeded")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCluster(ClusterConfig{Mode: ModeMayflower, Topo: cfg, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			start := time.Now()
			tc.ghost(t, ctx, c)
			waitDrained(t, c, within-time.Since(start))
		})
	}
}

// TestRetiringTwiceIsANoOp: a flow retired twice — by its release and
// by a poll, say — leaves the model, emunet and the switch tables as the
// first retirement did, and the flow beside it untouched.
func TestRetiringTwiceIsANoOp(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Mode: ModeMayflower, Topo: tinyTopo(), Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	pool := rpc.NewPool(rpc.Options{})
	defer pool.Close()
	stub := flowserver.NewRPCClient(pool.Peer(c.FlowserverAddr()))
	name := func(h topology.NodeID) string { return c.Topo.Node(h).Name }
	var ids []flowserver.FlowID
	for range 2 {
		as, err := stub.Select(ctx, flowserver.SelectArgs{
			ClientHost:   name(c.Topo.HostAt(0, 0, 0)),
			ReplicaHosts: []string{name(c.Topo.HostAt(1, 0, 0))},
			Bits:         8e9,
		})
		if err != nil || len(as) != 1 || as[0].Local {
			t.Fatalf("Select = %v, %v", as, err)
		}
		ids = append(ids, as[0].FlowID)
	}
	// Switch rules leave by fire-and-forget FlowMods: let each
	// retirement's land before reading the tables.
	retire := func() [3]int {
		t.Helper()
		if err := stub.Finished(ctx, ids[0]); err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Millisecond)
		return [3]int{c.Plane().NumFlows(), c.Net.NumFlows(), switchRules(c)}
	}
	once := retire()
	if once[0] != 1 || once[1] != 1 || once[2] == 0 {
		t.Fatalf("after one retirement (model, emunet, rules) = %v, want the other flow's alone", once)
	}
	if twice := retire(); twice != once {
		t.Errorf("retiring again moved (model, emunet, rules) from %v to %v", once, twice)
	}
	if _, ok := c.Net.FlowRate(uint64(ids[1])); !ok {
		t.Error("retiring one flow twice unregistered the other")
	}
}
