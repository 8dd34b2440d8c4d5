package testbed

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/client"
	"github.com/mayflower-dfs/mayflower/internal/flowctl"
	"github.com/mayflower-dfs/mayflower/internal/flowserver"
	"github.com/mayflower-dfs/mayflower/internal/nameserver"
	"github.com/mayflower-dfs/mayflower/internal/obs"
	"github.com/mayflower-dfs/mayflower/internal/rpc"
	"github.com/mayflower-dfs/mayflower/internal/topology"
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
	if n := cluster.NumFlowShards(); n != 1 {
		t.Fatalf("default cluster runs %d flow shards, want 1", n)
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
		rules := 0
		for _, sw := range cluster.switches {
			rules += sw.NumFlows()
		}
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
