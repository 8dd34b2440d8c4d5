package topology

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func testTopo(t *testing.T) *Topology {
	t.Helper()
	topo, err := New(PaperTestbed(8))
	if err != nil {
		t.Fatalf("New(PaperTestbed(8)): %v", err)
	}
	return topo
}

func TestPaperTestbedShape(t *testing.T) {
	topo := testTopo(t)

	if got, want := topo.NumHosts(), 64; got != want {
		t.Errorf("NumHosts = %d, want %d", got, want)
	}
	// 4 pods * (4 edge + 2 agg) + 2 core = 26 switches.
	if got, want := topo.NumNodes(), 64+26; got != want {
		t.Errorf("NumNodes = %d, want %d", got, want)
	}
	// Directed links: 64 host links + 4*4*2 edge-agg + 4*2*2 agg-core,
	// each doubled.
	if got, want := topo.NumLinks(), 2*(64+32+16); got != want {
		t.Errorf("NumLinks = %d, want %d", got, want)
	}
	if got, want := len(topo.EdgeSwitches()), 16; got != want {
		t.Errorf("len(EdgeSwitches) = %d, want %d", got, want)
	}
	if got, want := len(topo.AggSwitches()), 8; got != want {
		t.Errorf("len(AggSwitches) = %d, want %d", got, want)
	}
	if got, want := len(topo.CoreSwitches()), 2; got != want {
		t.Errorf("len(CoreSwitches) = %d, want %d", got, want)
	}
}

func TestPaperTestbedOversubscription(t *testing.T) {
	tests := []struct {
		oversub     float64
		wantAggCore float64
	}{
		// Pod host bandwidth is 16 Gbps over 4 agg-core links.
		{oversub: 8, wantAggCore: Mbps(500)},
		{oversub: 16, wantAggCore: Mbps(250)},
		{oversub: 24, wantAggCore: Mbps(500) / 3},
	}
	for _, tt := range tests {
		cfg := PaperTestbed(tt.oversub)
		if got := cfg.AggCoreLinkBps; !closeTo(got, tt.wantAggCore, 1) {
			t.Errorf("oversub %g: AggCoreLinkBps = %g, want %g", tt.oversub, got, tt.wantAggCore)
		}
		if got, want := cfg.EdgeAggLinkBps, Gbps(1); !closeTo(got, want, 1) {
			t.Errorf("oversub %g: EdgeAggLinkBps = %g, want %g", tt.oversub, got, want)
		}
		if got, want := cfg.EdgeLinkBps, Gbps(1); got != want {
			t.Errorf("oversub %g: EdgeLinkBps = %g, want %g", tt.oversub, got, want)
		}
	}
}

func closeTo(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func TestConfigValidate(t *testing.T) {
	valid := PaperTestbed(8)
	if err := valid.Validate(); err != nil {
		t.Fatalf("Validate(valid) = %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero pods", func(c *Config) { c.Pods = 0 }},
		{"zero racks", func(c *Config) { c.RacksPerPod = 0 }},
		{"zero hosts", func(c *Config) { c.HostsPerRack = 0 }},
		{"zero aggs", func(c *Config) { c.AggsPerPod = 0 }},
		{"zero cores", func(c *Config) { c.Cores = 0 }},
		{"zero edge bw", func(c *Config) { c.EdgeLinkBps = 0 }},
		{"negative edge-agg bw", func(c *Config) { c.EdgeAggLinkBps = -1 }},
		{"zero agg-core bw", func(c *Config) { c.AggCoreLinkBps = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := valid
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Errorf("Validate() = nil, want error")
			}
			if _, err := New(cfg); err == nil {
				t.Errorf("New() = nil error, want error")
			}
		})
	}
}

func TestHostAtRoundTrip(t *testing.T) {
	topo := testTopo(t)
	cfg := topo.Config()
	for p := 0; p < cfg.Pods; p++ {
		for r := 0; r < cfg.RacksPerPod; r++ {
			for h := 0; h < cfg.HostsPerRack; h++ {
				id := topo.HostAt(p, r, h)
				n := topo.Node(id)
				if n.Kind != KindHost {
					t.Fatalf("HostAt(%d,%d,%d) kind = %v", p, r, h, n.Kind)
				}
				if n.Pod != p || n.Rack != r || n.Index != h {
					t.Fatalf("HostAt(%d,%d,%d) = pod %d rack %d idx %d", p, r, h, n.Pod, n.Rack, n.Index)
				}
				if got := topo.HostIndex(id); got != (p*cfg.RacksPerPod+r)*cfg.HostsPerRack+h {
					t.Fatalf("HostIndex(%v) = %d", id, got)
				}
			}
		}
	}
}

func TestParseHostName(t *testing.T) {
	tests := []struct {
		host      string
		pod, rack int
		ok        bool
	}{
		{"host-p0-r0-h0", 0, 0, true},
		{"host-p3-r12-h1", 3, 12, true},
		{"host-p10-r2-h40", 10, 2, true},
		{"gateway-1", 0, 0, false},
		{"host-x0-r0-h0", 0, 0, false},
		{"host-p0-rX-h0", 0, 0, false},
		{"host-p-r1-h0", 0, 0, false},
		{"host-p-1-r0-h0", 0, 0, false},
		{"host-p0-r0-h0x", 0, 0, false},
		{"host-p0-r0-h0-", 0, 0, false},
		{"host-p0-r0-h", 0, 0, false},
		{"host-p0-r0", 0, 0, false},
		{"host-p9999999999-r0-h0", 0, 0, false},
		{"", 0, 0, false},
	}
	for _, tt := range tests {
		pod, rack, ok := ParseHostName(tt.host)
		if ok != tt.ok || (ok && (pod != tt.pod || rack != tt.rack)) {
			t.Errorf("ParseHostName(%q) = (%d, %d, %v), want (%d, %d, %v)",
				tt.host, pod, rack, ok, tt.pod, tt.rack, tt.ok)
		}
	}
	// Every name New generates parses back to its node's coordinates.
	topo := testTopo(t)
	for _, id := range topo.Hosts() {
		n := topo.Node(id)
		if pod, rack, ok := ParseHostName(n.Name); !ok || pod != n.Pod || rack != n.Rack {
			t.Errorf("ParseHostName(%q) = (%d, %d, %v), want (%d, %d, true)", n.Name, pod, rack, ok, n.Pod, n.Rack)
		}
	}
	if n := testing.AllocsPerRun(100, func() { ParseHostName("host-p3-r12-h1") }); n != 0 {
		t.Errorf("ParseHostName allocates %v times, want 0", n)
	}
}

// TestHostByName: every host New names resolves back to its node, on the
// paper's testbed and on the shapes of the scaled testbed (2×2×4) and the
// chaos scenarios (2×2×2); no other string does, and resolving allocates
// nothing.
func TestHostByName(t *testing.T) {
	small := func(hostsPerRack int) Config {
		return Config{Pods: 2, RacksPerPod: 2, HostsPerRack: hostsPerRack, AggsPerPod: 2, Cores: 2,
			EdgeLinkBps: 1, EdgeAggLinkBps: 1, AggCoreLinkBps: 1}
	}
	for _, cfg := range []Config{PaperTestbed(8), small(4), small(2)} {
		topo, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range topo.Hosts() {
			if got, ok := topo.HostByName(topo.Node(h).Name); !ok || got != h {
				t.Errorf("HostByName(%q) = %v, %v; want %v", topo.Node(h).Name, got, ok, h)
			}
		}
		switches := append(topo.EdgeSwitches(), append(topo.AggSwitches(), topo.CoreSwitches()...)...)
		for _, id := range switches {
			if _, ok := topo.HostByName(topo.Node(id).Name); ok {
				t.Errorf("HostByName(%q) resolved a switch", topo.Node(id).Name)
			}
		}
	}
	topo := testTopo(t) // 4 pods × 4 racks × 4 hosts
	for _, name := range []string{
		"host-p4-r0-h0", "host-p0-r4-h0", "host-p0-r0-h4", "host-p3-r3-h4", "host-p9-r0-h0", "host-p999999999-r0-h0", // out of range
		"host-p01-r0-h0", "host-p0-r00-h0", "host-p0-r0-h03", // re-spelled
		"host-p0-r0-h0x", "host-p0-r0-h0-", "host-p0-r0-h0 ", // trailing junk
		"host-p0-r0", "edge-p0-r0", "agg-p0-a0", "core-0", "", // not a host name
	} {
		if h, ok := topo.HostByName(name); ok {
			t.Errorf("HostByName(%q) = %v, want refused", name, h)
		}
	}
	if n := testing.AllocsPerRun(100, func() { topo.HostByName("host-p3-r2-h1") }); n != 0 {
		t.Errorf("HostByName allocates %v times, want 0", n)
	}
}

func TestLocalityPredicates(t *testing.T) {
	topo := testTopo(t)
	a := topo.HostAt(0, 0, 0)
	sameRack := topo.HostAt(0, 0, 3)
	samePod := topo.HostAt(0, 2, 1)
	otherPod := topo.HostAt(3, 1, 0)

	tests := []struct {
		name     string
		b        NodeID
		sameRack bool
		samePod  bool
		distance int
	}{
		{"self", a, true, true, 0},
		{"same rack", sameRack, true, true, 2},
		{"same pod", samePod, false, true, 4},
		{"other pod", otherPod, false, false, 6},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := topo.SameRack(a, tt.b); got != tt.sameRack {
				t.Errorf("SameRack = %v, want %v", got, tt.sameRack)
			}
			if got := topo.SamePod(a, tt.b); got != tt.samePod {
				t.Errorf("SamePod = %v, want %v", got, tt.samePod)
			}
			if got := topo.Distance(a, tt.b); got != tt.distance {
				t.Errorf("Distance = %d, want %d", got, tt.distance)
			}
		})
	}
}

func TestLinkBetweenSymmetry(t *testing.T) {
	topo := testTopo(t)
	for _, l := range topo.Links() {
		back, ok := topo.linkBetween[l.To][l.From]
		if !ok {
			t.Fatalf("no reverse link for %v", l)
		}
		rl := topo.Link(back)
		if rl.Capacity != l.Capacity {
			t.Fatalf("asymmetric capacity: %v vs %v", l, rl)
		}
	}
}

func TestEdgeOf(t *testing.T) {
	topo := testTopo(t)
	for _, h := range topo.Hosts() {
		edge := topo.EdgeOf(h)
		ne, nh := topo.Node(edge), topo.Node(h)
		if ne.Kind != KindEdge {
			t.Fatalf("EdgeOf(%v).Kind = %v", h, ne.Kind)
		}
		if ne.Pod != nh.Pod || ne.Rack != nh.Rack {
			t.Fatalf("EdgeOf(%v) in pod %d rack %d, host in pod %d rack %d",
				h, ne.Pod, ne.Rack, nh.Pod, nh.Rack)
		}
		if _, ok := topo.linkBetween[h][edge]; !ok {
			t.Fatalf("host %v not adjacent to its edge switch", h)
		}
	}
}

func TestUplinks(t *testing.T) {
	topo := testTopo(t)
	h := topo.HostAt(1, 2, 3)
	up := topo.Link(topo.UplinkOf(h))
	if up.From != h || up.To != topo.EdgeOf(h) {
		t.Errorf("UplinkOf = %+v", up)
	}
	ups := topo.EdgeUplinks(h)
	if len(ups) != topo.Config().AggsPerPod {
		t.Fatalf("len(EdgeUplinks) = %d, want %d", len(ups), topo.Config().AggsPerPod)
	}
	for _, id := range ups {
		l := topo.Link(id)
		if l.From != topo.EdgeOf(h) || topo.Node(l.To).Kind != KindAgg {
			t.Errorf("EdgeUplinks contains %+v", l)
		}
	}
}

func TestShortestPathsCounts(t *testing.T) {
	topo := testTopo(t)
	a := topo.HostAt(0, 0, 0)

	tests := []struct {
		name      string
		b         NodeID
		wantPaths int
		wantLen   int
	}{
		{"same rack", topo.HostAt(0, 0, 1), 1, 2},
		{"same pod", topo.HostAt(0, 3, 0), 2, 4},
		{"cross pod", topo.HostAt(2, 0, 0), 8, 6},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			paths := topo.ShortestPaths(a, tt.b)
			if len(paths) != tt.wantPaths {
				t.Fatalf("got %d paths, want %d", len(paths), tt.wantPaths)
			}
			for _, p := range paths {
				if len(p) != tt.wantLen {
					t.Errorf("path length %d, want %d", len(p), tt.wantLen)
				}
				if !topo.ValidPath(p, a, tt.b) {
					t.Errorf("invalid path %v", p)
				}
			}
		})
	}

	if got := topo.ShortestPaths(a, a); got != nil {
		t.Errorf("ShortestPaths(a, a) = %v, want nil", got)
	}
}

func TestShortestPathsDistinct(t *testing.T) {
	topo := testTopo(t)
	a, b := topo.HostAt(0, 0, 0), topo.HostAt(1, 1, 1)
	seen := make(map[string]bool)
	for _, p := range topo.ShortestPaths(a, b) {
		key := ""
		for _, l := range p {
			key += "," + topo.Node(topo.Link(l).From).Name
		}
		if seen[key] {
			t.Fatalf("duplicate path %s", key)
		}
		seen[key] = true
	}
}

// TestShortestPathsProperty checks, for random host pairs, that every
// enumerated path is a valid directed path of the expected length and that
// the path count matches the combinatorial expectation.
func TestShortestPathsProperty(t *testing.T) {
	topo := testTopo(t)
	cfg := topo.Config()
	hosts := topo.Hosts()

	f := func(ai, bi uint16) bool {
		a := hosts[int(ai)%len(hosts)]
		b := hosts[int(bi)%len(hosts)]
		paths := topo.ShortestPaths(a, b)
		switch topo.Distance(a, b) {
		case 0:
			return paths == nil
		case 2:
			if len(paths) != 1 {
				return false
			}
		case 4:
			if len(paths) != cfg.AggsPerPod {
				return false
			}
		case 6:
			if len(paths) != cfg.AggsPerPod*cfg.Cores*cfg.AggsPerPod {
				return false
			}
		}
		for _, p := range paths {
			if len(p) != topo.Distance(a, b) {
				return false
			}
			if !topo.ValidPath(p, a, b) {
				return false
			}
		}
		return true
	}
	cfgQ := &quick.Config{
		MaxCount: 300,
		Rand:     rand.New(rand.NewSource(42)),
	}
	if err := quick.Check(f, cfgQ); err != nil {
		t.Error(err)
	}
}

func TestPathNodes(t *testing.T) {
	topo := testTopo(t)
	a, b := topo.HostAt(0, 0, 0), topo.HostAt(1, 0, 0)
	p := topo.ShortestPaths(a, b)[0]
	nodes := topo.PathNodes(p)
	if len(nodes) != len(p)+1 {
		t.Fatalf("len(nodes) = %d, want %d", len(nodes), len(p)+1)
	}
	if nodes[0] != a || nodes[len(nodes)-1] != b {
		t.Fatalf("path endpoints = %v..%v, want %v..%v", nodes[0], nodes[len(nodes)-1], a, b)
	}
	wantKinds := []NodeKind{KindHost, KindEdge, KindAgg, KindCore, KindAgg, KindEdge, KindHost}
	for i, n := range nodes {
		if topo.Node(n).Kind != wantKinds[i] {
			t.Errorf("node %d kind = %v, want %v", i, topo.Node(n).Kind, wantKinds[i])
		}
	}
	if topo.PathNodes(nil) != nil {
		t.Error("PathNodes(nil) != nil")
	}
}

func TestValidPathRejects(t *testing.T) {
	topo := testTopo(t)
	a, b := topo.HostAt(0, 0, 0), topo.HostAt(1, 0, 0)
	p := topo.ShortestPaths(a, b)[0]

	if topo.ValidPath(p, b, a) {
		t.Error("ValidPath accepted reversed endpoints")
	}
	// Swap two middle links to break contiguity.
	broken := make(Path, len(p))
	copy(broken, p)
	broken[1], broken[2] = broken[2], broken[1]
	if topo.ValidPath(broken, a, b) {
		t.Error("ValidPath accepted non-contiguous path")
	}
	if !topo.ValidPath(nil, a, a) {
		t.Error("ValidPath rejected empty self-path")
	}
	if topo.ValidPath(nil, a, b) {
		t.Error("ValidPath accepted empty path between distinct hosts")
	}
}

func TestNodeKindString(t *testing.T) {
	tests := []struct {
		kind NodeKind
		want string
	}{
		{KindHost, "host"},
		{KindEdge, "edge"},
		{KindAgg, "agg"},
		{KindCore, "core"},
		{NodeKind(99), "unknown(99)"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", int(tt.kind), got, tt.want)
		}
	}
}
