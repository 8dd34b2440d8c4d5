package selection

import (
	"math/rand"
	"testing"

	"github.com/mayflower-dfs/mayflower/internal/topology"
)

func testTopo(t *testing.T) *topology.Topology {
	t.Helper()
	topo, err := topology.New(topology.PaperTestbed(8))
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestNearestPrefersCloser(t *testing.T) {
	topo := testTopo(t)
	n := NewNearest(topo, rand.New(rand.NewSource(1)))
	client := topo.HostAt(0, 0, 0)
	sameRack := topo.HostAt(0, 0, 1)
	samePod := topo.HostAt(0, 1, 0)
	otherPod := topo.HostAt(2, 0, 0)

	got, err := n.SelectReplica(client, []topology.NodeID{otherPod, samePod, sameRack})
	if err != nil {
		t.Fatal(err)
	}
	if got != sameRack {
		t.Errorf("SelectReplica = %v, want same-rack replica %v", got, sameRack)
	}

	if _, err := n.SelectReplica(client, nil); err == nil {
		t.Error("empty replica list accepted")
	}
}

func TestNearestTieBreaksRandomly(t *testing.T) {
	topo := testTopo(t)
	n := NewNearest(topo, rand.New(rand.NewSource(2)))
	client := topo.HostAt(0, 0, 0)
	// Both replicas are cross-pod, i.e. equidistant: "in this scenario,
	// HDFS is just performing random replica selection."
	a, b := topo.HostAt(1, 0, 0), topo.HostAt(2, 0, 0)
	seen := make(map[topology.NodeID]int)
	for i := 0; i < 400; i++ {
		got, err := n.SelectReplica(client, []topology.NodeID{a, b})
		if err != nil {
			t.Fatal(err)
		}
		seen[got]++
	}
	if seen[a] < 100 || seen[b] < 100 {
		t.Errorf("tie-break counts %v, want both well represented", seen)
	}
}

func TestHDFSRackAware(t *testing.T) {
	topo := testTopo(t)
	h := NewHDFSRackAware(topo, rand.New(rand.NewSource(3)))
	client := topo.HostAt(0, 0, 0)
	sameRack := topo.HostAt(0, 0, 2)
	remote1 := topo.HostAt(1, 0, 0)
	remote2 := topo.HostAt(2, 0, 0)

	got, err := h.SelectReplica(client, []topology.NodeID{remote1, sameRack, remote2})
	if err != nil {
		t.Fatal(err)
	}
	if got != sameRack {
		t.Errorf("SelectReplica = %v, want in-rack replica", got)
	}

	// Local replica beats everything.
	got, err = h.SelectReplica(client, []topology.NodeID{remote1, client})
	if err != nil {
		t.Fatal(err)
	}
	if got != client {
		t.Errorf("SelectReplica = %v, want local replica", got)
	}

	// No rack-local replica: uniformly random.
	seen := make(map[topology.NodeID]int)
	for i := 0; i < 400; i++ {
		got, err = h.SelectReplica(client, []topology.NodeID{remote1, remote2})
		if err != nil {
			t.Fatal(err)
		}
		seen[got]++
	}
	if seen[remote1] < 100 || seen[remote2] < 100 {
		t.Errorf("random fallback counts %v", seen)
	}
	if _, err := h.SelectReplica(client, nil); err == nil {
		t.Error("empty replica list accepted")
	}
}

func TestSinbadRPicksLeastUtilized(t *testing.T) {
	topo := testTopo(t)
	hot := topo.HostAt(1, 0, 0)
	cold := topo.HostAt(2, 0, 0)
	client := topo.HostAt(0, 0, 0)

	util := map[topology.LinkID]float64{}
	// Saturate the hot replica's host uplink.
	util[topo.UplinkOf(hot)] = topo.Link(topo.UplinkOf(hot)).Capacity

	s := NewSinbadR(topo, rand.New(rand.NewSource(4)), util)
	for i := 0; i < 20; i++ {
		got, err := s.SelectReplica(client, []topology.NodeID{hot, cold})
		if err != nil {
			t.Fatal(err)
		}
		if got != cold {
			t.Fatalf("SelectReplica = %v, want cold replica %v", got, cold)
		}
	}
}

func TestSinbadRUsesEdgeUplinks(t *testing.T) {
	topo := testTopo(t)
	client := topo.HostAt(0, 0, 0)
	repA := topo.HostAt(1, 0, 0)
	repB := topo.HostAt(2, 0, 0)

	util := map[topology.LinkID]float64{}
	// Both edge uplinks of repA's rack are fully loaded; its host uplink
	// is idle. Sinbad-R must still see the congestion.
	for _, l := range topo.EdgeUplinks(repA) {
		util[l] = topo.Link(l).Capacity
	}
	s := NewSinbadR(topo, rand.New(rand.NewSource(5)), util)
	got, err := s.SelectReplica(client, []topology.NodeID{repA, repB})
	if err != nil {
		t.Fatal(err)
	}
	if got != repB {
		t.Errorf("SelectReplica = %v, want %v (repA edge tier congested)", got, repB)
	}

	// An in-rack read does not cross the edge uplinks, so their load must
	// not matter then.
	clientInRack := topo.HostAt(1, 0, 1)
	got, err = s.SelectReplica(clientInRack, []topology.NodeID{repA})
	if err != nil {
		t.Fatal(err)
	}
	if got != repA {
		t.Errorf("in-rack SelectReplica = %v, want %v", got, repA)
	}
}

func TestSinbadRPodRestriction(t *testing.T) {
	topo := testTopo(t)
	client := topo.HostAt(0, 0, 0)
	podReplica := topo.HostAt(0, 1, 0) // same pod as client
	farReplica := topo.HostAt(3, 0, 0)

	util := map[topology.LinkID]float64{}
	// Even with the pod replica's uplink congested, the pod restriction
	// keeps the search inside the client's pod.
	util[topo.UplinkOf(podReplica)] = topo.Link(topo.UplinkOf(podReplica)).Capacity

	s := NewSinbadR(topo, rand.New(rand.NewSource(6)), util)
	got, err := s.SelectReplica(client, []topology.NodeID{podReplica, farReplica})
	if err != nil {
		t.Fatal(err)
	}
	if got != podReplica {
		t.Errorf("SelectReplica = %v, want pod-restricted %v", got, podReplica)
	}
}

func TestSinbadRLocalReplica(t *testing.T) {
	topo := testTopo(t)
	client := topo.HostAt(0, 0, 0)
	s := NewSinbadR(topo, rand.New(rand.NewSource(7)), map[topology.LinkID]float64{})
	got, err := s.SelectReplica(client, []topology.NodeID{topo.HostAt(1, 0, 0), client})
	if err != nil {
		t.Fatal(err)
	}
	if got != client {
		t.Errorf("SelectReplica = %v, want local", got)
	}
	if _, err := s.SelectReplica(client, nil); err == nil {
		t.Error("empty replica list accepted")
	}
}

func TestECMPDeterministicPerFlow(t *testing.T) {
	topo := testTopo(t)
	e := NewECMP(topo)
	src, dst := topo.HostAt(0, 0, 0), topo.HostAt(1, 0, 0)

	p1, err := e.SelectPath(src, dst, 42)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e.SelectPath(src, dst, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1) != len(p2) {
		t.Fatal("paths differ in length")
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("same flow key hashed to different paths")
		}
	}
	if !topo.ValidPath(p1, src, dst) {
		t.Error("ECMP returned an invalid path")
	}
}

func TestECMPSpreadsFlows(t *testing.T) {
	topo := testTopo(t)
	e := NewECMP(topo)
	src, dst := topo.HostAt(0, 0, 0), topo.HostAt(1, 0, 0)

	counts := make(map[topology.LinkID]int)
	const flows = 800
	for k := uint64(0); k < flows; k++ {
		p, err := e.SelectPath(src, dst, k)
		if err != nil {
			t.Fatal(err)
		}
		counts[p[1]]++ // second hop: edge → one of two aggregation switches
	}
	if len(counts) < 2 {
		t.Fatalf("ECMP used only %d second hops", len(counts))
	}
	for l, c := range counts {
		if c < flows/8 {
			t.Errorf("second hop %d only got %d/%d flows", l, c, flows)
		}
	}
}

func TestECMPNoPath(t *testing.T) {
	topo := testTopo(t)
	e := NewECMP(topo)
	h := topo.HostAt(0, 0, 0)
	if _, err := e.SelectPath(h, h, 1); err == nil {
		t.Error("self path accepted")
	}
}
