package flowctl

import (
	"testing"

	"github.com/mayflower-dfs/mayflower/internal/flowserver"
	"github.com/mayflower-dfs/mayflower/internal/testutil"
	"github.com/mayflower-dfs/mayflower/internal/topology"
)

// BenchmarkSelectSharded measures one read selection against a plane
// already holding ~1k live flows, at 1, 2 and 4 shards. The 1-shard
// case is the path every default deployment takes: every candidate
// wholly owned, scored exactly, committed without a split. At N >= 2 the
// measured work adds digest scoring of the remote sub-path and the
// foreign commit to the owning shard (direct in-process links here, so
// the delta is the partitioning machinery itself, not wire latency).
func BenchmarkSelectSharded(b *testing.B) {
	for _, bc := range []struct {
		name   string
		shards int
	}{{"1", 1}, {"2", 2}, {"4", 4}} {
		b.Run(bc.name, func(b *testing.B) {
			topo, err := topology.New(topology.PaperTestbed(8))
			if err != nil {
				b.Fatal(err)
			}
			p, err := NewPlane(topo, Options{Shards: bc.shards})
			if err != nil {
				b.Fatal(err)
			}
			r := testutil.Rand(b, 7)
			hosts := topo.Hosts()
			for i := 0; i < 1000; i++ {
				src := hosts[r.Intn(len(hosts))]
				dst := hosts[r.Intn(len(hosts))]
				if src == dst {
					i--
					continue
				}
				if _, err := p.SelectPath(src, dst, 1e6*(1+r.Float64()*2000)); err != nil {
					b.Fatal(err)
				}
			}
			p.PollFrom(1.0, staticStats{})
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

// staticStats is an empty poll source: PollFrom still rebuilds and
// installs every shard's digest, which is what the benchmarks need.
type staticStats struct{}

func (staticStats) FlowStats() []flowserver.FlowStat { return nil }

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
