package flowserver

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"github.com/mayflower-dfs/mayflower/internal/topology"
)

const tol = 1e-6

func near(a, b float64) bool { return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b)) }

// candidates lists every shortest path from each replica to client,
// wholly owned: a one-shard plane's candidate list for a read.
func candidates(topo *topology.Topology, client topology.NodeID, replicas ...topology.NodeID) []Candidate {
	var cs []Candidate
	for _, r := range replicas {
		for _, p := range topo.ShortestPaths(r, client) {
			cs = append(cs, Candidate{Endpoint: r, Path: p, Own: p, Cap: math.Inf(1)})
		}
	}
	return cs
}

// selectOne runs Select over cands and fails the test on error.
func selectOne(t *testing.T, srv *Server, cands []Candidate, bits float64) Assignment {
	t.Helper()
	a, _, err := srv.Select(cands, bits)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// figure2 builds the §4.2 worked example: one pod, two racks, two
// aggregation switches, 10 Mbps links (units here are Mb and Mbps). The
// replica source is in rack 0 and the reader in rack 1, giving two
// four-link paths (via agg 0 and agg 1). Background flows carry the shares
// shown in Figure 2(a).
type figure2 struct {
	topo           *topology.Topology
	srv            *Server
	source         topology.NodeID
	reader         topology.NodeID
	pathA, pathB   topology.Path // via agg 0, agg 1
	link2A, link3A topology.LinkID
	flow6, flow10  FlowID // the squeezed flows on path A
}

func newFigure2(t *testing.T, opts Options) *figure2 {
	t.Helper()
	topo, err := topology.New(topology.Config{
		Pods: 1, RacksPerPod: 2, HostsPerRack: 2, AggsPerPod: 2, Cores: 1,
		EdgeLinkBps: 10, EdgeAggLinkBps: 10, AggCoreLinkBps: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := &figure2{
		topo:   topo,
		srv:    New(topo, opts),
		source: topo.HostAt(0, 0, 0),
		reader: topo.HostAt(0, 1, 0),
	}
	paths := topo.ShortestPaths(f.source, f.reader)
	if len(paths) != 2 {
		t.Fatalf("expected 2 paths, got %d", len(paths))
	}
	f.pathA, f.pathB = paths[0], paths[1]

	link := func(p topology.Path, i int) topology.LinkID { return p[i] }
	f.link2A, f.link3A = link(f.pathA, 1), link(f.pathA, 2)
	link2B, link3B := link(f.pathB, 1), link(f.pathB, 2)

	// Figure 2(a): path A second link carries shares {2, 2, 6}; its third
	// link carries {10}. Path B: {2, 2, 4} and {8}. Remaining size of all
	// existing flows is 6 Mb.
	f.srv.ForceFlow([]topology.LinkID{f.link2A}, 6, 2)
	f.srv.ForceFlow([]topology.LinkID{f.link2A}, 6, 2)
	f.flow6 = f.srv.ForceFlow([]topology.LinkID{f.link2A}, 6, 6)
	f.flow10 = f.srv.ForceFlow([]topology.LinkID{f.link3A}, 6, 10)
	f.srv.ForceFlow([]topology.LinkID{link2B}, 6, 2)
	f.srv.ForceFlow([]topology.LinkID{link2B}, 6, 2)
	f.srv.ForceFlow([]topology.LinkID{link2B}, 6, 4)
	f.srv.ForceFlow([]topology.LinkID{link3B}, 6, 8)
	return f
}

// read selects the worked example's 9 Mb read over paths A and B.
func (f *figure2) read(t *testing.T) Assignment {
	return selectOne(t, f.srv, candidates(f.topo, f.reader, f.source), 9)
}

func TestFigure2PathCosts(t *testing.T) {
	f := newFigure2(t, Options{})

	costA, bwA := f.srv.PathCost(f.pathA, 9)
	// C1 = 9/3 + (6/3 − 6/6) + (6/7 − 6/10) = 4.2571... ("4.25").
	wantA := 3.0 + 1.0 + (6.0/7 - 0.6)
	if !near(costA, wantA) {
		t.Errorf("cost(path A) = %g, want %g", costA, wantA)
	}
	if !near(bwA, 3) {
		t.Errorf("bw(path A) = %g, want 3", bwA)
	}

	costB, bwB := f.srv.PathCost(f.pathB, 9)
	// C2 = 9/3 + (6/3 − 6/4) + (6/7 − 6/8) = 3.6071... ("3.6").
	wantB := 3.0 + 0.5 + (6.0/7 - 0.75)
	if !near(costB, wantB) {
		t.Errorf("cost(path B) = %g, want %g", costB, wantB)
	}
	if !near(bwB, 3) {
		t.Errorf("bw(path B) = %g, want 3", bwB)
	}
}

func TestFigure2SelectsSecondPath(t *testing.T) {
	f := newFigure2(t, Options{})
	a, won, err := f.srv.Select(candidates(f.topo, f.reader, f.source), 9)
	if err != nil {
		t.Fatal(err)
	}
	if won != 1 {
		t.Errorf("winner = candidate %d, want 1 (path B)", won)
	}
	if a.Path[1] != f.pathB[1] {
		t.Errorf("selected path via link %d, want path B (link %d)", a.Path[1], f.pathB[1])
	}
	if !near(a.EstimatedBw, 3) {
		t.Errorf("EstimatedBw = %g, want 3", a.EstimatedBw)
	}
	if a.Replica != f.source || !near(a.Bits, 9) || a.Local() {
		t.Errorf("assignment = %+v", a)
	}
}

func TestFigure2HeterogeneousCapacityFlipsChoice(t *testing.T) {
	// §4.2: "if we assume that the second link in the first path has
	// 20Mbps capacity, then the cost of the first path will become 2.4
	// seconds and thus the first path will be selected."
	f := newFigure2(t, Options{})
	if err := f.srv.SetLinkCapacity(f.link2A, 20); err != nil {
		t.Fatal(err)
	}

	costA, bwA := f.srv.PathCost(f.pathA, 9)
	if !near(bwA, 5) {
		t.Errorf("bw(path A) = %g, want 5 (bottleneck moves to third link)", bwA)
	}
	// C1 = 9/5 + (6/7 − 6/10) = 1.8 + 0.2571 ≈ 2.057. The paper states
	// 2.4 by keeping the second-link squeeze in its narrative; the exact
	// recomputation with the bottleneck at the third link gives 2.057 —
	// either way strictly below C2 = 3.6, so the choice flips to path A.
	if costA >= 2.5 {
		t.Errorf("cost(path A) = %g, want < 2.5", costA)
	}

	if a := f.read(t); a.Path[1] != f.pathA[1] {
		t.Error("selection did not flip to path A with 20 Mbps second link")
	}
}

func TestSetLinkCapacityValidation(t *testing.T) {
	f := newFigure2(t, Options{})
	if err := f.srv.SetLinkCapacity(f.link2A, 0); err == nil {
		t.Error("zero capacity accepted")
	}
	if err := f.srv.SetLinkCapacity(topology.LinkID(9999), 10); err == nil {
		t.Error("unknown link accepted")
	}
}

func TestCommitFreezesChangedFlows(t *testing.T) {
	clock := 0.0
	f := newFigure2(t, Options{Now: func() float64 { return clock }})

	a := f.read(t)
	// The new flow is frozen for its expected completion (9/3 = 3 s).
	frozen, until := f.srv.FlowFrozen(a.FlowID)
	if !frozen || !near(until, 3) {
		t.Errorf("new flow frozen=%v until=%g, want true until 3", frozen, until)
	}
	// Path B was chosen, so path A's flows are untouched.
	if frozen, _ := f.srv.FlowFrozen(f.flow6); frozen {
		t.Error("flow on unchosen path was frozen")
	}
	if bw, _ := f.srv.EstimatedBW(f.flow6); !near(bw, 6) {
		t.Errorf("flow6 bw = %g, want 6 (untouched)", bw)
	}
}

func TestUpdateFlowStatsRespectsFreeze(t *testing.T) {
	clock := 0.0
	f := newFigure2(t, Options{Now: func() float64 { return clock }})
	id := f.read(t).FlowID

	// A poll at t=1 measuring 5 Mb transferred implies 5 Mbps, but the
	// flow is frozen until t=3, so the estimate must hold at 3.
	clock = 1
	f.srv.UpdateFlowStats(1, []FlowStat{{ID: id, TransferredBits: 5}})
	if bw, _ := f.srv.EstimatedBW(id); !near(bw, 3) {
		t.Errorf("bw after frozen poll = %g, want 3", bw)
	}
	// Remaining always tracks counters.
	if rem, _ := f.srv.FlowRemainingEstimate(id); !near(rem, 4) {
		t.Errorf("remaining = %g, want 4", rem)
	}

	// After the freeze expires, polls take effect: 2 more Mb in 3 s.
	clock = 4
	f.srv.UpdateFlowStats(4, []FlowStat{{ID: id, TransferredBits: 7}})
	if bw, _ := f.srv.EstimatedBW(id); !near(bw, 2.0/3) {
		t.Errorf("bw after unfrozen poll = %g, want %g", bw, 2.0/3)
	}
}

func TestUpdateFlowStatsDisableFreeze(t *testing.T) {
	clock := 0.0
	f := newFigure2(t, Options{Now: func() float64 { return clock }, DisableFreeze: true})
	id := f.read(t).FlowID
	clock = 1
	f.srv.UpdateFlowStats(1, []FlowStat{{ID: id, TransferredBits: 5}})
	if bw, _ := f.srv.EstimatedBW(id); !near(bw, 5) {
		t.Errorf("bw = %g, want 5 (freeze disabled)", bw)
	}
}

func TestUpdateFlowStatsIgnoresUnknownAndStale(t *testing.T) {
	f := newFigure2(t, Options{})
	// Unknown flow: no panic, no effect.
	f.srv.UpdateFlowStats(1, []FlowStat{{ID: 9999, TransferredBits: 5}})
	// Stale (dt <= 0) poll: ignored entirely — neither bandwidth nor
	// remaining may move, or a duplicated/reordered poll would roll the
	// remaining-bits estimate backward.
	bwBefore, _ := f.srv.EstimatedBW(f.flow6)
	remBefore, _ := f.srv.FlowRemainingEstimate(f.flow6)
	f.srv.UpdateFlowStats(0, []FlowStat{{ID: f.flow6, TransferredBits: 1}})
	if bw, _ := f.srv.EstimatedBW(f.flow6); !near(bw, bwBefore) {
		t.Errorf("bw changed on dt<=0 poll: %g -> %g", bwBefore, bw)
	}
	if rem, _ := f.srv.FlowRemainingEstimate(f.flow6); !near(rem, remBefore) {
		t.Errorf("remaining changed on dt<=0 poll: %g -> %g", remBefore, rem)
	}
}

func TestUpdateFlowStatsReorderedPolls(t *testing.T) {
	clock := 0.0
	f := newFigure2(t, Options{Now: func() float64 { return clock }})
	id := f.flow6 // 6 Mb total, not frozen

	clock = 2
	f.srv.UpdateFlowStats(2, []FlowStat{{ID: id, TransferredBits: 4}})
	if bw, _ := f.srv.EstimatedBW(id); !near(bw, 2) {
		t.Fatalf("bw = %g, want 2", bw)
	}
	if rem, _ := f.srv.FlowRemainingEstimate(id); !near(rem, 2) {
		t.Fatalf("remaining = %g, want 2", rem)
	}

	check := func(what string) {
		t.Helper()
		if bw, _ := f.srv.EstimatedBW(id); !near(bw, 2) {
			t.Errorf("%s: bw = %g, want 2 (unchanged)", what, bw)
		}
		if rem, _ := f.srv.FlowRemainingEstimate(id); !near(rem, 2) {
			t.Errorf("%s: remaining = %g, want 2 (unchanged)", what, rem)
		}
	}

	// A delayed poll from t=1 delivered after the t=2 poll must not roll
	// the remaining estimate backward (to 6−2 = 4) or corrupt the rate.
	f.srv.UpdateFlowStats(1, []FlowStat{{ID: id, TransferredBits: 2}})
	check("out-of-order poll")

	// An exact duplicate of the t=2 poll carries no new information.
	f.srv.UpdateFlowStats(2, []FlowStat{{ID: id, TransferredBits: 4}})
	check("duplicate poll")

	// A regressed counter at a later time (switch table reset) is ignored.
	clock = 3
	f.srv.UpdateFlowStats(3, []FlowStat{{ID: id, TransferredBits: 3}})
	check("regressed counter")

	// The next good poll resumes from the preserved counter state.
	clock = 4
	f.srv.UpdateFlowStats(4, []FlowStat{{ID: id, TransferredBits: 5}})
	if bw, _ := f.srv.EstimatedBW(id); !near(bw, 0.5) {
		t.Errorf("bw after recovery poll = %g, want 0.5 (1 Mb over 2 s)", bw)
	}
	if rem, _ := f.srv.FlowRemainingEstimate(id); !near(rem, 1) {
		t.Errorf("remaining after recovery poll = %g, want 1", rem)
	}
}

func TestFreezeExpiresAtBoundary(t *testing.T) {
	clock := 0.0
	f := newFigure2(t, Options{Now: func() float64 { return clock }})
	id := f.read(t).FlowID
	if _, until := f.srv.FlowFrozen(id); !near(until, 3) {
		t.Fatalf("freezeUntil = %g, want 3", until)
	}

	// Pseudocode 2 holds the estimate *until* the expected completion: a
	// poll landing exactly at the horizon already sees the freeze expired.
	clock = 3
	f.srv.UpdateFlowStats(3, []FlowStat{{ID: id, TransferredBits: 6}})
	if bw, _ := f.srv.EstimatedBW(id); !near(bw, 2) {
		t.Errorf("bw at freeze boundary = %g, want 2 (6 Mb over 3 s)", bw)
	}
	if frozen, _ := f.srv.FlowFrozen(id); frozen {
		t.Error("flow still frozen at its freeze horizon")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	f := newFigure2(t, Options{})
	s := f.srv

	s.mu.Lock()
	defer s.mu.Unlock()
	wantNext := s.nextID
	wantFlows := make(map[FlowID]flowState, len(s.flows))
	for id, fl := range s.flows {
		wantFlows[id] = *fl
	}
	wantLinks := make([][]FlowID, len(s.linkFlows))
	for l, fs := range s.linkFlows {
		for _, fl := range fs {
			wantLinks[l] = append(wantLinks[l], fl.id)
		}
	}

	snap := s.snapshot()
	// Mutate every part of the model: admit flows on both paths (new ids,
	// new index entries, squeezed estimates on existing flows).
	for _, c := range candidates(f.topo, f.reader, f.source) {
		s.commit(c, s.evalPathCapped(c.Own, 9, c.Cap), 9)
	}
	if s.nextID == wantNext {
		t.Fatal("commits did not advance nextID; test is vacuous")
	}
	s.restore(snap)

	if s.nextID != wantNext {
		t.Errorf("nextID = %d, want %d", s.nextID, wantNext)
	}
	if len(s.flows) != len(wantFlows) {
		t.Fatalf("len(flows) = %d, want %d", len(s.flows), len(wantFlows))
	}
	for id, want := range wantFlows {
		got, ok := s.flows[id]
		if !ok {
			t.Fatalf("flow %d missing after restore", id)
		}
		if !reflect.DeepEqual(*got, want) {
			t.Errorf("flow %d = %+v, want %+v", id, *got, want)
		}
	}
	for l := range s.linkFlows {
		got, want := s.linkFlows[l], wantLinks[l]
		if len(got) != len(want) {
			t.Errorf("link %d index has %d flows, want %d", l, len(got), len(want))
			continue
		}
		for i := range got {
			if got[i].id != want[i] {
				t.Errorf("link %d index entry %d = flow %d, want %d", l, i, got[i].id, want[i])
				break
			}
		}
	}
}

func TestDisableImpactTermChangesChoice(t *testing.T) {
	// Path A: bottleneck share 4, nothing to squeeze. Path B: share 5 but
	// an existing flow pays a huge penalty. Full Eq. 2 picks A; the
	// ablated cost (d/b only) picks B.
	build := func(opts Options) (*Server, *figure2) {
		f := newFigure2(t, opts)
		srv := New(f.topo, opts)
		// Path A second link: one flow demanding 6 → new flow share
		// (10-6 vs equal split) = max-min: level 5 caps... water-fill
		// {6, inf} on 10 → {5, 5}? The 6-demand flow gets 5 (squeezed).
		// To make A penalty-free, cap its demand at 6 on a 10 link and
		// give the new flow 4 via demand 6 flow staying: use {6} on cap
		// 10: new flow gets 4? Water-fill: level rises to 5: flow (d=6)
		// not capped at 5... both get 5. That squeezes 6→5.
		// Simpler: put a *demand 2* flow with remaining 0.0001 (neglig.)
		// Instead: A has capacity 4 on its third link (SetLinkCapacity)
		// and no flows; B keeps cap 10 with a heavily-squeezed flow.
		if err := srv.SetLinkCapacity(f.link3A, 4); err != nil {
			t.Fatal(err)
		}
		pathB := f.pathB
		srv.ForceFlow([]topology.LinkID{pathB[1]}, 1000, 10)
		return srv, f
	}

	full, f := build(Options{})
	if a := selectOne(t, full, candidates(f.topo, f.reader, f.source), 9); a.Path[1] != f.pathA[1] {
		t.Error("full cost should avoid squeezing the long-lived flow (path A)")
	}

	ablated, f2 := build(Options{DisableImpactTerm: true})
	if a := selectOne(t, ablated, candidates(f2.topo, f2.reader, f2.source), 9); a.Path[1] != f2.pathB[1] {
		t.Error("ablated cost should chase raw bandwidth (path B)")
	}
}

func TestSelectErrors(t *testing.T) {
	f := newFigure2(t, Options{})
	if _, _, err := f.srv.Select(nil, 9); !errors.Is(err, ErrNoCandidates) {
		t.Errorf("Select with no candidates: got %v, want ErrNoCandidates", err)
	}
	if _, err := f.srv.SelectSplit(nil, 9); !errors.Is(err, ErrNoCandidates) {
		t.Errorf("SelectSplit with no candidates: got %v, want ErrNoCandidates", err)
	}
	if n := f.srv.NumFlows(); n != 8 {
		t.Errorf("NumFlows = %d, want the 8 background flows", n)
	}
}

func TestFlowFinishedRemoves(t *testing.T) {
	f := newFigure2(t, Options{})
	before := f.srv.NumFlows()
	as := f.read(t)
	if f.srv.NumFlows() != before+1 {
		t.Fatalf("NumFlows = %d, want %d", f.srv.NumFlows(), before+1)
	}
	f.srv.FlowFinished(as.FlowID)
	if f.srv.NumFlows() != before {
		t.Fatalf("NumFlows after finish = %d, want %d", f.srv.NumFlows(), before)
	}
	f.srv.FlowFinished(as.FlowID) // idempotent
	if _, ok := f.srv.EstimatedBW(as.FlowID); ok {
		t.Error("finished flow still visible")
	}
}

// multiTopo builds a topology where a client can read from two replicas in
// different pods over disjoint bottlenecks.
func multiTopo(t *testing.T) (*topology.Topology, topology.NodeID, []topology.NodeID) {
	t.Helper()
	topo, err := topology.New(topology.Config{
		Pods: 3, RacksPerPod: 1, HostsPerRack: 2, AggsPerPod: 2, Cores: 2,
		EdgeLinkBps: 100, EdgeAggLinkBps: 10, AggCoreLinkBps: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	client := topo.HostAt(0, 0, 0)
	replicas := []topology.NodeID{topo.HostAt(1, 0, 0), topo.HostAt(2, 0, 0)}
	return topo, client, replicas
}

func TestMultiReplicaSplit(t *testing.T) {
	topo, client, replicas := multiTopo(t)
	srv := New(topo, Options{})

	as, err := srv.SelectSplit(candidates(topo, client, replicas...), 18)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 2 {
		t.Fatalf("got %d assignments, want 2 (split read)", len(as))
	}
	if as[0].Replica == as[1].Replica {
		t.Error("subflows assigned the same replica")
	}
	if total := as[0].Bits + as[1].Bits; !near(total, 18) {
		t.Errorf("split sizes sum to %g, want 18", total)
	}
	// Bottlenecks are the disjoint 10 bps pod uplinks, while the shared
	// client downlink is 100 bps: both subflows should see ~10 and split
	// evenly, finishing together.
	t1 := as[0].Bits / as[0].EstimatedBw
	bw2, _ := srv.EstimatedBW(as[1].FlowID)
	t2 := as[1].Bits / bw2
	if !near(t1, t2) {
		t.Errorf("subflow finish times differ: %g vs %g", t1, t2)
	}
	if srv.NumFlows() != 2 {
		t.Errorf("NumFlows = %d, want 2", srv.NumFlows())
	}
}

func TestMultiReplicaRollback(t *testing.T) {
	// Both replicas sit behind the client's single 10 bps downlink, so a
	// second subflow cannot add bandwidth; selection must fall back to a
	// single flow and leave no tentative state behind.
	topo, err := topology.New(topology.Config{
		Pods: 2, RacksPerPod: 1, HostsPerRack: 3, AggsPerPod: 1, Cores: 1,
		EdgeLinkBps: 10, EdgeAggLinkBps: 100, AggCoreLinkBps: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	client := topo.HostAt(0, 0, 0)
	replicas := []topology.NodeID{topo.HostAt(1, 0, 0), topo.HostAt(1, 0, 1)}
	srv := New(topo, Options{})

	as, err := srv.SelectSplit(candidates(topo, client, replicas...), 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 1 {
		t.Fatalf("got %d assignments, want 1 (rollback to single)", len(as))
	}
	if !near(as[0].Bits, 20) || !near(as[0].EstimatedBw, 10) {
		t.Errorf("assignment = %+v", as[0])
	}
	// The rolled-back probe must not burn flow ids: the accepted flow is
	// the first ever registered, so it gets id 1.
	if as[0].FlowID != 1 {
		t.Errorf("FlowID = %d, want 1 (rollback must restore the id counter)", as[0].FlowID)
	}
	if srv.NumFlows() != 1 {
		t.Errorf("NumFlows = %d, want 1 after rollback", srv.NumFlows())
	}
}

func TestMultiReplicaSingleReplicaFallback(t *testing.T) {
	topo, client, replicas := multiTopo(t)
	srv := New(topo, Options{})
	as, err := srv.SelectSplit(candidates(topo, client, replicas[0]), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 1 {
		t.Fatalf("got %d assignments, want 1", len(as))
	}
}

func TestSelectPathRegistersFlow(t *testing.T) {
	topo, client, replicas := multiTopo(t)
	srv := New(topo, Options{})
	a := selectOne(t, srv, candidates(topo, client, replicas[0]), 10)
	if a.Replica != replicas[0] || len(a.Path) == 0 {
		t.Errorf("assignment = %+v", a)
	}
	if srv.NumFlows() != 1 {
		t.Errorf("NumFlows = %d, want 1", srv.NumFlows())
	}
}

func TestSequentialSelectionsSpreadLoad(t *testing.T) {
	// Two equal paths (figure 2 topology, no background flows): two
	// consecutive flows between the same pair should take different
	// aggregation switches, because the first flow's presence raises the
	// second path's cost.
	topo, err := topology.New(topology.Config{
		Pods: 1, RacksPerPod: 2, HostsPerRack: 2, AggsPerPod: 2, Cores: 1,
		EdgeLinkBps: 40, EdgeAggLinkBps: 10, AggCoreLinkBps: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(topo, Options{})
	src, dst := topo.HostAt(0, 0, 0), topo.HostAt(0, 1, 0)

	a1 := selectOne(t, srv, candidates(topo, dst, src), 100)
	a2 := selectOne(t, srv, candidates(topo, dst, src), 100)
	if a1.Path[1] == a2.Path[1] {
		t.Error("second flow stacked onto the first flow's path")
	}
}
