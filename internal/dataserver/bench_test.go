package dataserver

import (
	"context"
	"fmt"
	"net"
	"testing"

	"github.com/mayflower-dfs/mayflower/internal/emunet"
	"github.com/mayflower-dfs/mayflower/internal/nameserver"
	"github.com/mayflower-dfs/mayflower/internal/rpc"
	"github.com/mayflower-dfs/mayflower/internal/topology"
	"github.com/mayflower-dfs/mayflower/internal/uuid"
)

// BenchmarkAppendReplicated measures the primary's full append path over
// loopback — local apply, chunk CRC, and the two-replica relay — which is
// the hot path the write-scheduling work rides on, at the piece size the
// baseline has always recorded and at the end-to-end benchmark's.
func BenchmarkAppendReplicated(b *testing.B) {
	for _, size := range []int{64 << 10, 256 << 10} {
		b.Run(fmt.Sprintf("%dk", size>>10), func(b *testing.B) { benchAppendReplicated(b, size) })
	}
}

func benchAppendReplicated(b *testing.B, size int) {
	var replicas []nameserver.ReplicaLoc
	var servers []*Server
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("ds-%d", i)
		s, err := New(Config{ID: id, Root: b.TempDir(), Host: "host-" + id})
		if err != nil {
			b.Fatal(err)
		}
		ctlLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		dataLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Start(ctlLn, dataLn, ""); err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		servers = append(servers, s)
		replicas = append(replicas, nameserver.ReplicaLoc{
			ServerID:    id,
			ControlAddr: s.ControlAddr(),
			DataAddr:    s.DataAddr(),
			Host:        s.cfg.Host,
		})
	}
	info := nameserver.FileInfo{
		ID:        uuid.MustNew(),
		Name:      "bench-file",
		ChunkSize: 1 << 20,
		Replicas:  replicas,
	}
	cc := rpc.NewPeer(servers[0].ControlAddr(), rpc.Options{})
	defer cc.Close()
	var out struct{}
	if err := cc.Call(context.Background(), string(MethodPrepare), PrepareArgs{Info: info, Relay: true}, &out); err != nil {
		b.Fatal(err)
	}

	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i)
	}
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var reply AppendReply
		if err := appendVia(cc, AppendArgs{FileID: info.ID, Data: payload, Seq: uint64(i + 1)}, &reply); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBulkRead4K and BenchmarkBulkRead8M measure one bulk read
// through Bulk against a loopback dataserver with no pacing: the
// data-path cost of the end-to-end benchmark's small and large reads
// without any control plane around it. 16K is the largest range answered
// by one write, 64K a sendfile range: the pair brackets smallReply. The
// Paced pair runs the same read as flow 1 on a 100 Gbps emunet path,
// which is what the testbed and the end-to-end benchmark run: the link
// never binds, so what they add is the gate's own cost.
func BenchmarkBulkRead4K(b *testing.B)  { benchBulkRead(b, 4<<10, nil) }
func BenchmarkBulkRead16K(b *testing.B) { benchBulkRead(b, smallReply, nil) }
func BenchmarkBulkRead64K(b *testing.B) { benchBulkRead(b, 64<<10, nil) }
func BenchmarkBulkRead8M(b *testing.B)  { benchBulkRead(b, 8<<20, nil) }

func BenchmarkBulkReadPaced4K(b *testing.B) { benchBulkRead(b, 4<<10, pacedNet(b)) }
func BenchmarkBulkReadPaced8M(b *testing.B) { benchBulkRead(b, 8<<20, pacedNet(b)) }

// pacedNet is an emulated 100 Gbps fabric with flow 1 registered on it.
func pacedNet(b *testing.B) Pacer {
	topo, err := topology.New(topology.Config{
		Pods: 1, RacksPerPod: 1, HostsPerRack: 2, AggsPerPod: 1, Cores: 1,
		EdgeLinkBps: topology.Gbps(100), EdgeAggLinkBps: topology.Gbps(100), AggCoreLinkBps: topology.Gbps(100),
	})
	if err != nil {
		b.Fatal(err)
	}
	net := emunet.New(topo)
	if err := net.RegisterFlow(1, topo.ShortestPaths(topo.HostAt(0, 0, 0), topo.HostAt(0, 0, 1))[0]); err != nil {
		b.Fatal(err)
	}
	return net
}

func benchBulkRead(b *testing.B, size int, pacer Pacer) {
	s := startServer(b, "ds-read", pacer)
	info := nameserver.FileInfo{ID: uuid.MustNew(), Name: "bench-read", ChunkSize: 1 << 20}
	if err := s.store.prepare(info); err != nil {
		b.Fatal(err)
	}
	if _, err := s.store.appendAt(info.ID, 0, make([]byte, size)); err != nil {
		b.Fatal(err)
	}
	bulk := NewBulk(nil, 0, new(BulkMetrics))
	defer bulk.Close()
	buf := make([]byte, size)
	ctx := context.Background()
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bulk.Read(ctx, s.DataAddr(), 1, info.ID, 0, buf); err != nil {
			b.Fatal(err)
		}
	}
}
