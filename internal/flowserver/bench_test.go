package flowserver_test

import (
	"context"
	"testing"

	"github.com/mayflower-dfs/mayflower/internal/flowctl"
	"github.com/mayflower-dfs/mayflower/internal/flowserver"
	"github.com/mayflower-dfs/mayflower/internal/rpc"
	"github.com/mayflower-dfs/mayflower/internal/topology"
	"github.com/mayflower-dfs/mayflower/internal/wire"
)

// BenchmarkSelectRPC is one read's control round trip as a client makes
// it: an fs.Select over a real wire server naming three replica hosts
// and carrying the previous read's release in Done, served by a
// one-shard plane. This is the message whose decode grows a handler
// goroutine's stack, which an echo of an int cannot show.
func BenchmarkSelectRPC(b *testing.B) {
	topo, err := topology.New(topology.Config{
		Pods: 1, RacksPerPod: 4, HostsPerRack: 1, AggsPerPod: 2, Cores: 1,
		EdgeLinkBps: 1e9, EdgeAggLinkBps: 1e9, AggCoreLinkBps: 1e9,
	})
	if err != nil {
		b.Fatal(err)
	}
	shard, err := flowctl.NewShard(topo, flowctl.ShardConfig{Shards: 1})
	if err != nil {
		b.Fatal(err)
	}
	srv := wire.NewServer()
	if err := flowctl.RegisterShardRPC(srv, shard, nil); err != nil {
		b.Fatal(err)
	}
	pool := rpc.NewPool(rpc.Options{})
	b.Cleanup(func() { pool.Close() })
	stub := flowserver.NewRPCClient(pool.Peer(listen(b, srv)))
	name := func(rack int) string { return topo.Node(topo.HostAt(0, rack, 0)).Name }
	args := flowserver.SelectArgs{ClientHost: name(0), ReplicaHosts: []string{name(1), name(2), name(3)}, Bits: 4 << 13}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		as, err := stub.Select(ctx, args)
		if err != nil || len(as) != 1 {
			b.Fatalf("Select = %v, %v", as, err)
		}
		stub.Release(as[0].FlowID)
	}
}
