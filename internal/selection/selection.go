// Package selection implements the replica- and path-selection baselines
// Mayflower is compared against in §6.2 of the paper:
//
//   - Nearest: static, topology-distance-based replica selection (what
//     HDFS does with rack awareness); ties are broken uniformly at random,
//     which the paper notes degenerates to random selection when replicas
//     are equidistant.
//
//   - HDFSRackAware: HDFS's actual read policy — prefer a replica in the
//     client's rack if one exists, otherwise fall back to random (used for
//     the Figure 8 prototype comparison).
//
//   - SinbadR: the paper's read-variant of Sinbad. It scores each
//     candidate replica by the measured utilization of the core-facing
//     links on the replica's side (host uplink and its edge switch's
//     uplinks) and picks the least-utilized one. If the client shares a
//     pod with any replica, the search space is restricted to that pod.
//
//   - ECMP: hash-based equal-cost multi-path selection among the shortest
//     paths, the network-layer baseline.
//
// The Mayflower joint selector and the Mayflower path-only scheduler live
// in package flowserver; this package covers everything it is compared to.
package selection

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"

	"github.com/mayflower-dfs/mayflower/internal/topology"
)

// Nearest selects the replica with the smallest topology distance to the
// client, breaking ties uniformly at random.
type Nearest struct {
	topo *topology.Topology
	rng  *rand.Rand
}

// NewNearest creates a Nearest selector.
func NewNearest(topo *topology.Topology, rng *rand.Rand) *Nearest {
	return &Nearest{topo: topo, rng: rng}
}

// SelectReplica returns the closest replica to the client.
func (n *Nearest) SelectReplica(client topology.NodeID, replicas []topology.NodeID) (topology.NodeID, error) {
	if len(replicas) == 0 {
		return 0, fmt.Errorf("selection: no replicas")
	}
	best := make([]topology.NodeID, 0, len(replicas))
	bestDist := -1
	for _, r := range replicas {
		d := n.topo.Distance(client, r)
		switch {
		case bestDist < 0 || d < bestDist:
			bestDist = d
			best = append(best[:0], r)
		case d == bestDist:
			best = append(best, r)
		}
	}
	return best[n.rng.Intn(len(best))], nil
}

// HDFSRackAware selects a replica the way HDFS does for reads: a replica
// on the client's host if present, then a replica in the client's rack,
// otherwise a uniformly random replica.
type HDFSRackAware struct {
	topo *topology.Topology
	rng  *rand.Rand
}

// NewHDFSRackAware creates an HDFSRackAware selector.
func NewHDFSRackAware(topo *topology.Topology, rng *rand.Rand) *HDFSRackAware {
	return &HDFSRackAware{topo: topo, rng: rng}
}

// SelectReplica returns the replica HDFS's rack-aware policy would read.
func (h *HDFSRackAware) SelectReplica(client topology.NodeID, replicas []topology.NodeID) (topology.NodeID, error) {
	if len(replicas) == 0 {
		return 0, fmt.Errorf("selection: no replicas")
	}
	for _, r := range replicas {
		if r == client {
			return r, nil
		}
	}
	var local []topology.NodeID
	for _, r := range replicas {
		if h.topo.SameRack(client, r) {
			local = append(local, r)
		}
	}
	if len(local) > 0 {
		return local[h.rng.Intn(len(local))], nil
	}
	return replicas[h.rng.Intn(len(replicas))], nil
}

// SinbadR is the read-variant of Sinbad (§6.2): dynamic replica selection
// driven by measured link utilization. Two modifications adapt Sinbad's
// write-time placement logic to reads: utilization is estimated on the
// links facing toward the core on the data source's side (reads flow in
// the opposite direction from writes), and the search space collapses to a
// pod that contains both the client and a replica.
type SinbadR struct {
	topo *topology.Topology
	rng  *rand.Rand
	util map[topology.LinkID]float64
}

// NewSinbadR creates a Sinbad-R selector over util, the (possibly stale)
// link loads a monitor like Sinbad's end-host agents measures: bits per
// second of observed traffic per directed link, 0 where absent. The
// selector reads the map on every selection; its owner refreshes it in
// place between them.
func NewSinbadR(topo *topology.Topology, rng *rand.Rand, util map[topology.LinkID]float64) *SinbadR {
	return &SinbadR{topo: topo, rng: rng, util: util}
}

// SelectReplica returns the replica whose core-facing links are least
// utilized, relative to their capacity.
func (s *SinbadR) SelectReplica(client topology.NodeID, replicas []topology.NodeID) (topology.NodeID, error) {
	if len(replicas) == 0 {
		return 0, fmt.Errorf("selection: no replicas")
	}
	for _, r := range replicas {
		if r == client {
			return r, nil
		}
	}

	// Pod restriction: if the client shares a pod with any replica, only
	// those replicas are considered.
	candidates := replicas
	var samePod []topology.NodeID
	for _, r := range replicas {
		if s.topo.SamePod(client, r) {
			samePod = append(samePod, r)
		}
	}
	if len(samePod) > 0 {
		candidates = samePod
	}

	var best []topology.NodeID
	bestScore := -1.0
	for _, r := range candidates {
		score := s.score(client, r)
		switch {
		case bestScore < 0 || score < bestScore-scoreEps:
			bestScore = score
			best = append(best[:0], r)
		case score <= bestScore+scoreEps:
			best = append(best, r)
		}
	}
	return best[s.rng.Intn(len(best))], nil
}

const scoreEps = 1e-9

// score estimates the congestion a read from replica r would meet, as the
// worst relative utilization among the core-facing links Sinbad-R can
// observe on the replica's side: the replica's host uplink and, when the
// client is outside the replica's rack, the replica's edge-switch uplinks
// (of which the least-loaded would carry the flow).
func (s *SinbadR) score(client, r topology.NodeID) float64 {
	uplink := s.topo.UplinkOf(r)
	score := s.relativeLoad(uplink)
	if s.topo.SameRack(client, r) {
		return score
	}
	bestEdge := -1.0
	for _, l := range s.topo.EdgeUplinks(r) {
		u := s.relativeLoad(l)
		if bestEdge < 0 || u < bestEdge {
			bestEdge = u
		}
	}
	if bestEdge > score {
		score = bestEdge
	}
	return score
}

func (s *SinbadR) relativeLoad(l topology.LinkID) float64 {
	c := s.topo.Link(l).Capacity
	if c <= 0 {
		return 0
	}
	return s.util[l] / c
}

// ECMP selects among the shortest paths between two hosts by hashing a
// flow key, the standard equal-cost multi-path behaviour (RFC 2992): a
// given flow sticks to one path, and distinct flows spread statistically.
type ECMP struct {
	topo *topology.Topology
}

// NewECMP creates an ECMP path selector.
func NewECMP(topo *topology.Topology) *ECMP {
	return &ECMP{topo: topo}
}

// SelectPath returns the hash-selected shortest path from src to dst for
// the given flow key (e.g. a connection identifier). It returns an error
// if src == dst, where no network path is needed.
func (e *ECMP) SelectPath(src, dst topology.NodeID, flowKey uint64) (topology.Path, error) {
	paths := e.topo.ShortestPaths(src, dst)
	if len(paths) == 0 {
		return nil, fmt.Errorf("selection: no path from %d to %d", src, dst)
	}
	h := fnv.New64a()
	var buf [24]byte
	binary.BigEndian.PutUint64(buf[0:8], uint64(src))
	binary.BigEndian.PutUint64(buf[8:16], uint64(dst))
	binary.BigEndian.PutUint64(buf[16:24], flowKey)
	_, _ = h.Write(buf[:])
	return paths[h.Sum64()%uint64(len(paths))], nil
}
