package topology

// Path is an ordered sequence of directed links from a source host to a
// destination host.
type Path []LinkID

// PathNodes returns the node sequence a path traverses, starting at the
// first link's source node.
func (t *Topology) PathNodes(p Path) []NodeID {
	if len(p) == 0 {
		return nil
	}
	out := make([]NodeID, 0, len(p)+1)
	out = append(out, t.links[p[0]].From)
	for _, l := range p {
		out = append(out, t.links[l].To)
	}
	return out
}

// ValidPath reports whether p is a contiguous directed path from src to dst.
func (t *Topology) ValidPath(p Path, src, dst NodeID) bool {
	if len(p) == 0 {
		return src == dst
	}
	if t.links[p[0]].From != src || t.links[p[len(p)-1]].To != dst {
		return false
	}
	for i := 1; i < len(p); i++ {
		if t.links[p[i]].From != t.links[p[i-1]].To {
			return false
		}
	}
	return true
}

// ShortestPaths enumerates every shortest path from the host src to the
// host dst, following the Mayflower restriction to shortest paths only
// (§4.2): paths have 2 links within a rack, 4 links within a pod (one per
// aggregation switch), and 6 links across pods (one per aggregation switch
// pair and core switch combination). It returns nil when src == dst.
//
// Results are memoized per (src, dst): the topology is immutable, so the
// Flowserver's per-request path enumeration amortizes to a map lookup. The
// returned paths are shared across callers and must not be modified.
//
// ShortestPaths is safe for concurrent use: parallel experiment cells
// share one topology (and therefore one path cache), so the memo map is
// guarded by pathMu, and a double-check under the write lock makes every
// caller — including concurrent first callers racing to fill the same
// entry — observe the one canonical slice for a host pair.
func (t *Topology) ShortestPaths(src, dst NodeID) []Path {
	if src == dst {
		return nil
	}
	key := hostPair{src, dst}
	t.pathMu.RLock()
	ps, ok := t.pathCache[key]
	t.pathMu.RUnlock()
	if ok {
		return ps
	}
	built := t.buildShortestPaths(src, dst)
	t.pathMu.Lock()
	ps, ok = t.pathCache[key]
	if !ok {
		ps = built
		t.pathCache[key] = ps
	}
	t.pathMu.Unlock()
	return ps
}

// buildShortestPaths constructs the path set for one host pair.
func (t *Topology) buildShortestPaths(src, dst NodeID) []Path {
	ns, nd := t.nodes[src], t.nodes[dst]
	if ns.Kind != KindHost || nd.Kind != KindHost {
		panic("topology: ShortestPaths requires host endpoints")
	}
	srcEdge, dstEdge := t.EdgeOf(src), t.EdgeOf(dst)

	mustLink := func(a, b NodeID) LinkID {
		id, ok := t.linkBetween[a][b]
		if !ok {
			panic("topology: missing link " + t.nodes[a].Name + " -> " + t.nodes[b].Name)
		}
		return id
	}

	up := mustLink(src, srcEdge)
	down := mustLink(dstEdge, dst)

	if t.SameRack(src, dst) {
		return []Path{{up, down}}
	}

	if t.SamePod(src, dst) {
		paths := make([]Path, 0, t.cfg.AggsPerPod)
		for _, agg := range t.aggs[ns.Pod] {
			paths = append(paths, Path{
				up,
				mustLink(srcEdge, agg),
				mustLink(agg, dstEdge),
				down,
			})
		}
		return paths
	}

	paths := make([]Path, 0, t.cfg.AggsPerPod*t.cfg.Cores*t.cfg.AggsPerPod)
	for _, aggUp := range t.aggs[ns.Pod] {
		for _, core := range t.cores {
			for _, aggDown := range t.aggs[nd.Pod] {
				paths = append(paths, Path{
					up,
					mustLink(srcEdge, aggUp),
					mustLink(aggUp, core),
					mustLink(core, aggDown),
					mustLink(aggDown, dstEdge),
					down,
				})
			}
		}
	}
	return paths
}

// UplinkOf returns the directed host-to-edge link for a host.
func (t *Topology) UplinkOf(host NodeID) LinkID {
	id, ok := t.linkBetween[host][t.EdgeOf(host)]
	if !ok {
		panic("topology: host has no uplink")
	}
	return id
}

// EdgeUplinks returns the directed links from a host's edge switch toward
// the aggregation tier. Sinbad-R uses the utilization of these core-facing
// links when estimating a replica's available read bandwidth (§6.2).
func (t *Topology) EdgeUplinks(host NodeID) []LinkID {
	n := t.nodes[host]
	edge := t.edges[n.Pod][n.Rack]
	out := make([]LinkID, 0, t.cfg.AggsPerPod)
	for _, agg := range t.aggs[n.Pod] {
		if id, ok := t.linkBetween[edge][agg]; ok {
			out = append(out, id)
		}
	}
	return out
}
