package testbed

import (
	"bytes"
	"context"
	"testing"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/nameserver"
)

// TestClusterShardedEndToEnd boots the deployment with the flow
// controller partitioned into two shards behind a directory, runs a
// cross-pod write + read (the read client sits in pod 1, the file's
// primary in pod 0, so both shards coordinate selections), and checks
// the sharded plane drains its per-shard flow tables.
func TestClusterShardedEndToEnd(t *testing.T) {
	cluster, err := NewCluster(ClusterConfig{
		Mode: ModeMayflower, Topo: tinyTopo(), Seed: 2, FlowShards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	writer, err := cluster.Client(cluster.Topo.HostAt(0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	if _, err := writer.Create(ctx, "sharded-e2e", nameserver.CreateOptions{ChunkSize: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("mayflower!"), 20_000) // 200 KB
	if _, err := writer.Append(ctx, "sharded-e2e", payload); err != nil {
		t.Fatal(err)
	}

	reader, err := cluster.Client(cluster.Topo.HostAt(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := reader.ReadAll(ctx, "sharded-e2e")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("read returned wrong bytes")
	}
	waitDrained(t, cluster, releaseBound)
}

// TestClusterKillFlowShard kills the shard owning the reader's pod
// mid-lifetime: reads keep completing (degraded or re-routed to the
// promoted shard), and the directory's epoch records the failover.
func TestClusterKillFlowShard(t *testing.T) {
	cluster, err := NewCluster(ClusterConfig{
		Mode: ModeMayflower, Topo: tinyTopo(), Seed: 5, FlowShards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	writer, err := cluster.Client(cluster.Topo.HostAt(0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Create(ctx, "kill-shard", nameserver.CreateOptions{ChunkSize: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("0123456789abcdef"), 8_192) // 128 KB
	if _, err := writer.Append(ctx, "kill-shard", payload); err != nil {
		t.Fatal(err)
	}

	// The reader lives in pod 1 — shard 1's territory under the initial
	// p mod 2 layout.
	reader, err := cluster.Client(cluster.Topo.HostAt(1, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reader.ReadAll(ctx, "kill-shard"); err != nil {
		t.Fatal(err)
	}

	epochBefore := cluster.Plane().Directory().Epoch()
	if err := cluster.KillFlowShard(1); err != nil {
		t.Fatal(err)
	}
	if err := cluster.KillFlowShard(1); err == nil {
		t.Error("double kill accepted")
	}
	if e := cluster.Plane().Directory().Epoch(); e != epochBefore+1 {
		t.Errorf("epoch after kill = %d, want %d", e, epochBefore+1)
	}
	if s, _, _, ok := cluster.Plane().Directory().Lookup(1); !ok || s != 0 {
		t.Errorf("pod 1 owner after kill = %d (ok=%v), want shard 0", s, ok)
	}

	// Reads must survive the kill: the client's cached route fails, it
	// re-resolves against the directory, and the promoted shard (or the
	// degraded locality path during the window) serves it.
	for i := 0; i < 3; i++ {
		got, err := reader.ReadAll(ctx, "kill-shard")
		if err != nil {
			t.Fatalf("read %d after shard kill: %v", i, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("read %d after shard kill returned wrong bytes", i)
		}
	}
	// Writes route through the dataserver's directory route too.
	if _, err := writer.Append(ctx, "kill-shard", payload[:4096]); err != nil {
		t.Fatalf("append after shard kill: %v", err)
	}
}

// TestClusterShardedValidation: MultiReplica cannot ride a partitioned
// plane.
func TestClusterShardedValidation(t *testing.T) {
	_, err := NewCluster(ClusterConfig{
		Mode: ModeMayflower, Topo: tinyTopo(), Seed: 1,
		FlowShards: 2, MultiReplica: true,
	})
	if err == nil {
		t.Fatal("MultiReplica + FlowShards accepted")
	}
}
