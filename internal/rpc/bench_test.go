package rpc

import (
	"context"
	"sync"
	"testing"

	"github.com/mayflower-dfs/mayflower/internal/wire"
)

// BenchmarkRPCRoundTrip measures one pooled-session echo round trip over
// loopback — the floor every control message (heartbeat, lookup,
// schedule request) pays for the typed session layer.
func BenchmarkRPCRoundTrip(b *testing.B) {
	ts := startTestServer(b)
	p := NewPeer(ts.addr, Options{})
	defer p.Close()
	ctx := context.Background()
	// Prime the session so the dial is outside the measured loop.
	if err := echoCall(ctx, p); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out int
		if err := p.Call(ctx, "echo", i, &out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRPCAttach256k is the same round trip with 256 KiB riding the
// request frame's raw attachment — one crossing of an append's payload.
func BenchmarkRPCAttach256k(b *testing.B) {
	ts := startTestServer(b)
	p := NewPeer(ts.addr, Options{})
	defer p.Close()
	blob := make([]byte, 256<<10)
	ctx := wire.WithAttachment(context.Background(), blob)
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n int
		if err := p.Call(ctx, "attached", nil, &n); err != nil || n != len(blob) {
			b.Fatalf("attached = %d, %v", n, err)
		}
	}
}

// BenchmarkRPCPooledFanout measures a 3-way concurrent fan-out through
// one pool — the replication-relay shape: a primary issuing parallel
// calls to every replica over shared sessions.
func BenchmarkRPCPooledFanout(b *testing.B) {
	const fanout = 3
	servers := make([]*testServer, fanout)
	for i := range servers {
		servers[i] = startTestServer(b)
	}
	pl := NewPool(Options{})
	defer pl.Close()
	ctx := context.Background()
	for _, ts := range servers {
		if err := echoCall(ctx, pl.Peer(ts.addr)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		errs := make([]error, fanout)
		for j, ts := range servers {
			wg.Add(1)
			go func(j int, addr string) {
				defer wg.Done()
				var out int
				errs[j] = pl.Peer(addr).Call(ctx, "echo", j, &out)
			}(j, ts.addr)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}
