package flowctl

import (
	"fmt"
	"testing"

	"github.com/mayflower-dfs/mayflower/internal/flowserver"
	"github.com/mayflower-dfs/mayflower/internal/testutil"
	"github.com/mayflower-dfs/mayflower/internal/topology"
)

// BenchmarkSelectSharded measures one read selection — the loop every
// deployment runs — against a plane already holding 1k or 10k live
// flows, at 1, 2 and 4 shards. The 1-shard case is every default
// deployment: every candidate wholly owned, scored exactly, committed
// without a split. At N >= 2 the measured work adds digest scoring of
// the remote sub-paths, and a foreign commit whenever a cross-pod
// replica wins (direct in-process links here, so the delta is the
// partitioning machinery itself, not wire latency).
func BenchmarkSelectSharded(b *testing.B) {
	for _, flows := range []int{1000, 10000} {
		for _, shards := range []int{1, 2, 4} {
			var p *Plane // loaded once, on the first of b.Run's rounds
			b.Run(fmt.Sprintf("%dk/%d", flows/1000, shards), func(b *testing.B) {
				if p == nil {
					p = loadedPlane(b, shards, flows)
				}
				topo := p.topo
				// Cross-pod on the paper testbed: client in pod 0, replicas
				// spread over pods 0, 1 and 2, so N >= 2 planes always score
				// at least one remote sub-path from digests.
				client := topo.HostAt(0, 0, 0)
				replicas := []topology.NodeID{
					topo.HostAt(0, 1, 0), topo.HostAt(1, 0, 0), topo.HostAt(2, 2, 3),
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					as, err := p.SelectReplicaAndPath(flowserver.Request{
						Client: client, Replicas: replicas, Bits: 256 * 8e6,
					})
					if err != nil {
						b.Fatal(err)
					}
					for _, a := range as {
						p.FlowFinished(a.FlowID)
					}
				}
			})
		}
	}
}

// loadedPlane builds a plane over the paper testbed holding n flows on
// random shortest paths, registered directly in the model of every
// shard owning part of each path with demands capped at random shares,
// and polled once so every shard holds its peers' digests. The flows'
// ids -n…-1 sort below every id a selection draws, so measured commits
// append to the per-link flow lists, as in a long-running plane.
func loadedPlane(b *testing.B, shards, n int) *Plane {
	topo, err := topology.New(topology.PaperTestbed(8))
	if err != nil {
		b.Fatal(err)
	}
	p, err := NewPlane(topo, Options{Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	r := testutil.Rand(b, 7)
	hosts := p.topo.Hosts()
	pods := LinkPods(p.topo)
	owner, _ := p.dir.Owners()
	for i := 0; i < n; {
		src, dst := hosts[r.Intn(len(hosts))], hosts[r.Intn(len(hosts))]
		if src == dst {
			continue
		}
		paths := p.topo.ShortestPaths(src, dst)
		path := paths[r.Intn(len(paths))]
		bits, capBw := 1e6*(1+r.Float64()*2000), 1e6*(1+r.Float64()*999)
		for g, s := range p.shards {
			var own topology.Path
			for _, l := range path {
				if owner[pods[l]] == g {
					own = append(own, l)
				}
			}
			if len(own) > 0 {
				s.srv.CommitForeign(flowserver.FlowID(i-n), own, bits, capBw)
			}
		}
		i++
	}
	// An empty poll still rebuilds and installs every shard's digest,
	// which is what the benchmarks need.
	p.PollFrom(1.0, nil)
	return p
}

// BenchmarkDigestMerge measures rebuilding the dense per-link remote
// view from three peer digests (the 4-shard case) with 256 loaded links
// each — the per-poll cost every shard pays to keep its cross-pod
// scoring fresh.
func BenchmarkDigestMerge(b *testing.B) {
	const numLinks = 2048
	r := testutil.Rand(b, 11)
	ds := make([]*Digest, 3)
	for g := range ds {
		d := &Digest{Shard: g + 1, Seq: 1, Time: 1.0}
		for i := 0; i < 256; i++ {
			d.Links = append(d.Links, int32(r.Intn(numLinks)))
			d.Loads = append(d.Loads, LinkLoad{
				Flows: int32(1 + r.Intn(8)),
				SumBw: 1e6 * (1 + r.Float64()*999),
			})
		}
		ds[g] = d
	}
	dst := make([]LinkLoad, numLinks)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = MergeDigests(dst, numLinks, ds...)
	}
}
