// Package topology models a three-tier (edge/aggregation/core) datacenter
// network as used in the Mayflower evaluation (ICDCS 2016, §6.1): hosts are
// grouped into racks behind edge (top-of-rack) switches, racks are grouped
// into pods behind aggregation switches, and pods are interconnected by core
// switches. The package provides the structural queries the rest of the
// system needs: node and link lookup, rack/pod locality predicates, hop
// distance, and exhaustive shortest-path enumeration between hosts.
//
// All link capacities are expressed in bits per second, and all links are
// directed: a physical cable between two switches is represented by two
// Link values, one per direction. Flow-level bandwidth sharing only ever
// contends on directed links, which is what makes read traffic (server to
// client) distinguishable from write traffic.
package topology

import (
	"fmt"
	"strconv"
	"sync"
)

// NodeKind identifies the tier a node belongs to.
type NodeKind int

// Node kinds, from the bottom of the tree up.
const (
	KindHost NodeKind = iota + 1
	KindEdge
	KindAgg
	KindCore
)

// String returns a short human-readable tier name.
func (k NodeKind) String() string {
	switch k {
	case KindHost:
		return "host"
	case KindEdge:
		return "edge"
	case KindAgg:
		return "agg"
	case KindCore:
		return "core"
	default:
		return "unknown(" + strconv.Itoa(int(k)) + ")"
	}
}

// NodeID is a dense index into the topology's node table.
type NodeID int

// LinkID is a dense index into the topology's directed-link table.
type LinkID int

// Node is a host or switch in the network.
type Node struct {
	ID   NodeID
	Kind NodeKind
	Name string

	// Pod is the pod index for hosts, edge and aggregation switches;
	// -1 for core switches.
	Pod int
	// Rack is the rack index within the pod for hosts and edge switches;
	// -1 for aggregation and core switches.
	Rack int
	// Index is the node's index within its grouping (host within rack,
	// edge within pod, agg within pod, core overall).
	Index int
}

// Link is a directed network link with a fixed capacity in bits per second.
type Link struct {
	ID       LinkID
	From, To NodeID
	Capacity float64
}

// Config describes a three-tier topology to build.
type Config struct {
	// Pods is the number of pods (aggregation groups).
	Pods int
	// RacksPerPod is the number of racks (edge switches) in each pod.
	RacksPerPod int
	// HostsPerRack is the number of hosts attached to each edge switch.
	HostsPerRack int
	// AggsPerPod is the number of aggregation switches per pod. Every edge
	// switch in a pod connects to every aggregation switch in that pod.
	AggsPerPod int
	// Cores is the number of core switches. Every aggregation switch
	// connects to every core switch.
	Cores int

	// EdgeLinkBps is the capacity of each host-to-edge link.
	EdgeLinkBps float64
	// EdgeAggLinkBps is the capacity of each edge-to-aggregation link.
	EdgeAggLinkBps float64
	// AggCoreLinkBps is the capacity of each aggregation-to-core link.
	AggCoreLinkBps float64
}

// Validate reports whether the configuration is structurally usable.
func (c Config) Validate() error {
	switch {
	case c.Pods < 1:
		return fmt.Errorf("topology: Pods must be >= 1, got %d", c.Pods)
	case c.RacksPerPod < 1:
		return fmt.Errorf("topology: RacksPerPod must be >= 1, got %d", c.RacksPerPod)
	case c.HostsPerRack < 1:
		return fmt.Errorf("topology: HostsPerRack must be >= 1, got %d", c.HostsPerRack)
	case c.AggsPerPod < 1:
		return fmt.Errorf("topology: AggsPerPod must be >= 1, got %d", c.AggsPerPod)
	case c.Cores < 1:
		return fmt.Errorf("topology: Cores must be >= 1, got %d", c.Cores)
	case c.EdgeLinkBps <= 0:
		return fmt.Errorf("topology: EdgeLinkBps must be > 0, got %g", c.EdgeLinkBps)
	case c.EdgeAggLinkBps <= 0:
		return fmt.Errorf("topology: EdgeAggLinkBps must be > 0, got %g", c.EdgeAggLinkBps)
	case c.AggCoreLinkBps <= 0:
		return fmt.Errorf("topology: AggCoreLinkBps must be > 0, got %g", c.AggCoreLinkBps)
	}
	return nil
}

// Mbps converts megabits per second to bits per second.
func Mbps(v float64) float64 { return v * 1e6 }

// Gbps converts gigabits per second to bits per second.
func Gbps(v float64) float64 { return v * 1e9 }

// PaperTestbed returns the configuration of the Mayflower evaluation
// testbed: 64 hosts in 4 pods of 4 racks of 4 hosts, 2 aggregation switches
// per pod, 2 core switches, and 1 Gbps edge links.
//
// The edge-to-aggregation tier is provisioned at a fixed 2:1
// oversubscription; the aggregation-to-core tier capacity is derived from
// the requested overall core-to-rack oversubscription ratio (8, 16 or 24 in
// the paper, §6.6), which makes the core the most oversubscribed tier, in
// line with the traffic study the paper cites (§6.4: "the core tier ... is
// the most oversubscribed").
func PaperTestbed(oversubscription float64) Config {
	const (
		pods         = 4
		racksPerPod  = 4
		hostsPerRack = 4
		aggsPerPod   = 2
		cores        = 2
		edgeAggRatio = 2.0
	)
	edge := Gbps(1)
	// Rack host bandwidth / rack uplink bandwidth = edgeAggRatio.
	hostBwPerRack := float64(hostsPerRack) * edge
	edgeAgg := hostBwPerRack / edgeAggRatio / float64(aggsPerPod)
	// Overall core-to-rack ratio = rack host bandwidth / rack share of the
	// pod's core capacity. Pod core capacity = aggsPerPod*cores*aggCore.
	podHostBw := float64(racksPerPod) * hostBwPerRack
	podCoreBw := podHostBw / oversubscription
	aggCore := podCoreBw / float64(aggsPerPod*cores)
	return Config{
		Pods:           pods,
		RacksPerPod:    racksPerPod,
		HostsPerRack:   hostsPerRack,
		AggsPerPod:     aggsPerPod,
		Cores:          cores,
		EdgeLinkBps:    edge,
		EdgeAggLinkBps: edgeAgg,
		AggCoreLinkBps: aggCore,
	}
}

// Topology is an immutable three-tier network graph.
type Topology struct {
	cfg   Config
	nodes []Node
	links []Link

	hosts []NodeID // all hosts, in construction order
	cores []NodeID

	// edges[pod][rack], aggs[pod][i] index switch nodes.
	edges [][]NodeID
	aggs  [][]NodeID

	// linkBetween[from] maps destination node to the directed link id.
	linkBetween []map[NodeID]LinkID

	// pathCache memoizes ShortestPaths results per host pair. The graph is
	// immutable, so entries never invalidate; the lock only guards the map
	// itself (cached paths are shared and must be treated as read-only).
	pathMu    sync.RWMutex
	pathCache map[hostPair][]Path
}

// hostPair keys the shortest-path cache.
type hostPair struct{ src, dst NodeID }

// ParseHostName inverts New's host naming, "host-p<pod>-r<rack>-h<idx>",
// for code that holds a name but no Topology; ok is false for any other
// string. It allocates nothing: the client ranks replicas by it on every
// read.
func ParseHostName(name string) (pod, rack int, ok bool) {
	var coord [3]int
	rest := name
	for i, part := range [3]string{"host-p", "-r", "-h"} {
		if len(rest) < len(part) || rest[:len(part)] != part {
			return 0, 0, false
		}
		rest = rest[len(part):]
		n := 0
		for n < len(rest) && rest[n] >= '0' && rest[n] <= '9' {
			coord[i] = coord[i]*10 + int(rest[n]-'0')
			n++
		}
		if n == 0 || n > 9 { // no digits, or more than an int32 holds
			return 0, 0, false
		}
		rest = rest[n:]
	}
	return coord[0], coord[1], rest == ""
}

// New builds the topology described by cfg.
func New(cfg Config) (*Topology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Topology{cfg: cfg, pathCache: make(map[hostPair][]Path)}

	addNode := func(kind NodeKind, name string, pod, rack, index int) NodeID {
		id := NodeID(len(t.nodes))
		t.nodes = append(t.nodes, Node{
			ID:    id,
			Kind:  kind,
			Name:  name,
			Pod:   pod,
			Rack:  rack,
			Index: index,
		})
		return id
	}

	t.edges = make([][]NodeID, cfg.Pods)
	t.aggs = make([][]NodeID, cfg.Pods)
	for p := 0; p < cfg.Pods; p++ {
		t.edges[p] = make([]NodeID, cfg.RacksPerPod)
		for r := 0; r < cfg.RacksPerPod; r++ {
			name := fmt.Sprintf("edge-p%d-r%d", p, r)
			t.edges[p][r] = addNode(KindEdge, name, p, r, r)
			for h := 0; h < cfg.HostsPerRack; h++ {
				hname := fmt.Sprintf("host-p%d-r%d-h%d", p, r, h)
				id := addNode(KindHost, hname, p, r, h)
				t.hosts = append(t.hosts, id)
			}
		}
		t.aggs[p] = make([]NodeID, cfg.AggsPerPod)
		for a := 0; a < cfg.AggsPerPod; a++ {
			name := fmt.Sprintf("agg-p%d-a%d", p, a)
			t.aggs[p][a] = addNode(KindAgg, name, p, -1, a)
		}
	}
	t.cores = make([]NodeID, cfg.Cores)
	for c := 0; c < cfg.Cores; c++ {
		t.cores[c] = addNode(KindCore, fmt.Sprintf("core-%d", c), -1, -1, c)
	}

	t.linkBetween = make([]map[NodeID]LinkID, len(t.nodes))
	for i := range t.linkBetween {
		t.linkBetween[i] = make(map[NodeID]LinkID)
	}
	addPair := func(a, b NodeID, capacity float64) {
		for _, dir := range [2][2]NodeID{{a, b}, {b, a}} {
			id := LinkID(len(t.links))
			t.links = append(t.links, Link{ID: id, From: dir[0], To: dir[1], Capacity: capacity})
			t.linkBetween[dir[0]][dir[1]] = id
		}
	}

	for p := 0; p < cfg.Pods; p++ {
		for r := 0; r < cfg.RacksPerPod; r++ {
			edge := t.edges[p][r]
			for h := 0; h < cfg.HostsPerRack; h++ {
				host := t.HostAt(p, r, h)
				addPair(host, edge, cfg.EdgeLinkBps)
			}
			for a := 0; a < cfg.AggsPerPod; a++ {
				addPair(edge, t.aggs[p][a], cfg.EdgeAggLinkBps)
			}
		}
		for a := 0; a < cfg.AggsPerPod; a++ {
			for c := 0; c < cfg.Cores; c++ {
				addPair(t.aggs[p][a], t.cores[c], cfg.AggCoreLinkBps)
			}
		}
	}
	return t, nil
}

// Config returns the configuration the topology was built from.
func (t *Topology) Config() Config { return t.cfg }

// NumNodes returns the total number of nodes (hosts and switches).
func (t *Topology) NumNodes() int { return len(t.nodes) }

// NumLinks returns the total number of directed links.
func (t *Topology) NumLinks() int { return len(t.links) }

// NumHosts returns the number of hosts.
func (t *Topology) NumHosts() int { return len(t.hosts) }

// Node returns the node with the given id.
func (t *Topology) Node(id NodeID) Node { return t.nodes[id] }

// Link returns the directed link with the given id.
func (t *Topology) Link(id LinkID) Link { return t.links[id] }

// Links returns a copy of all directed links.
func (t *Topology) Links() []Link {
	out := make([]Link, len(t.links))
	copy(out, t.links)
	return out
}

// Hosts returns a copy of all host node ids, ordered by pod, rack, index.
func (t *Topology) Hosts() []NodeID {
	out := make([]NodeID, len(t.hosts))
	copy(out, t.hosts)
	return out
}

// HostAt returns the host at (pod, rack, index within rack).
func (t *Topology) HostAt(pod, rack, idx int) NodeID {
	per := t.cfg.HostsPerRack
	i := (pod*t.cfg.RacksPerPod+rack)*per + idx
	return t.hosts[i]
}

// HostIndex returns a dense 0-based index for a host node id, suitable for
// array-backed per-host state. It panics if id is not a host.
func (t *Topology) HostIndex(id NodeID) int {
	n := t.nodes[id]
	if n.Kind != KindHost {
		panic("topology: HostIndex called on " + n.Kind.String())
	}
	return (n.Pod*t.cfg.RacksPerPod+n.Rack)*t.cfg.HostsPerRack + n.Index
}

// EdgeOf returns the edge (top-of-rack) switch for a host.
func (t *Topology) EdgeOf(host NodeID) NodeID {
	n := t.nodes[host]
	return t.edges[n.Pod][n.Rack]
}

// EdgeSwitches returns all edge switch ids ordered by pod then rack.
func (t *Topology) EdgeSwitches() []NodeID {
	var out []NodeID
	for _, pod := range t.edges {
		out = append(out, pod...)
	}
	return out
}

// AggSwitches returns all aggregation switch ids ordered by pod then index.
func (t *Topology) AggSwitches() []NodeID {
	var out []NodeID
	for _, pod := range t.aggs {
		out = append(out, pod...)
	}
	return out
}

// CoreSwitches returns all core switch ids.
func (t *Topology) CoreSwitches() []NodeID {
	out := make([]NodeID, len(t.cores))
	copy(out, t.cores)
	return out
}

// SameRack reports whether two hosts are in the same rack.
func (t *Topology) SameRack(a, b NodeID) bool {
	na, nb := t.nodes[a], t.nodes[b]
	return na.Pod == nb.Pod && na.Rack == nb.Rack
}

// SamePod reports whether two hosts are in the same pod.
func (t *Topology) SamePod(a, b NodeID) bool {
	return t.nodes[a].Pod == t.nodes[b].Pod
}

// Distance returns the number of directed links on a shortest path between
// two hosts: 0 if they are the same host, 2 within a rack, 4 within a pod,
// and 6 across pods.
func (t *Topology) Distance(a, b NodeID) int {
	switch {
	case a == b:
		return 0
	case t.SameRack(a, b):
		return 2
	case t.SamePod(a, b):
		return 4
	default:
		return 6
	}
}
