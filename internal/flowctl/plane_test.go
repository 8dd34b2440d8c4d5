package flowctl

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/mayflower-dfs/mayflower/internal/flowserver"
	"github.com/mayflower-dfs/mayflower/internal/obs"
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

// fakeClock is the injected model clock a test advances explicitly.
type fakeClock struct{ t float64 }

func (c *fakeClock) Now() float64 { return c.t }

// op is one step of a deterministic conformance workload.
type op struct {
	kind      int // 0 read, 1 write, 2 finish, 3 poll
	time      float64
	client    topology.NodeID
	replicas  []topology.NodeID
	bits      float64
	finishIdx int
}

// genOps builds a deterministic op stream. podLocal restricts every
// transfer's endpoints to one pod, the workload class whose selections
// must be invariant to the shard count.
func genOps(seed int64, topo *topology.Topology, n int, podLocal bool) []op {
	rng := rand.New(rand.NewSource(seed))
	cfg := topo.Config()
	hostIn := func(pod int) topology.NodeID {
		return topo.HostAt(pod, rng.Intn(cfg.RacksPerPod), rng.Intn(cfg.HostsPerRack))
	}
	anyHost := func(pod int) topology.NodeID {
		if podLocal {
			return hostIn(pod)
		}
		return hostIn(rng.Intn(cfg.Pods))
	}
	now := 0.0
	var ops []op
	issued := 0
	for i := 0; i < n; i++ {
		now += rng.Float64() * 0.2
		switch k := rng.Intn(10); {
		case k < 5: // read
			pod := rng.Intn(cfg.Pods)
			client := hostIn(pod)
			reps := []topology.NodeID{anyHost(pod), anyHost(pod), anyHost(pod)}
			ops = append(ops, op{kind: 0, time: now, client: client, replicas: reps,
				bits: float64(1+rng.Intn(8)) * 1e8})
			issued++
		case k < 7: // write pipeline
			pod := rng.Intn(cfg.Pods)
			src := hostIn(pod)
			tgts := []topology.NodeID{anyHost(pod), anyHost(pod)}
			ops = append(ops, op{kind: 1, time: now, client: src, replicas: tgts,
				bits: float64(1+rng.Intn(8)) * 1e8})
			issued++
		case k < 9 && issued > 0: // finish a previously issued job
			ops = append(ops, op{kind: 2, time: now, finishIdx: rng.Intn(issued)})
		default: // stats poll
			ops = append(ops, op{kind: 3, time: now})
		}
	}
	return ops
}

// applyOps drives one op stream against a plane, returning one
// comparison record per select call. withIDs includes flow ids (for
// run-to-run identity); without, records compare across shard counts,
// whose id sequences legitimately differ.
func applyOps(t *testing.T, cp *Plane, clock *fakeClock, ops []op, withIDs bool) []string {
	t.Helper()
	type job struct {
		ids      []flowserver.FlowID
		bits     float64
		progress float64
		done     bool
	}
	var jobs []*job
	var out []string
	record := func(as []flowserver.Assignment) {
		j := &job{}
		for _, a := range as {
			key := fmt.Sprintf("r=%d path=%v bits=%x bw=%x", a.Replica, a.Path, a.Bits, a.EstimatedBw)
			if withIDs {
				key = fmt.Sprintf("id=%d %s", a.FlowID, key)
			}
			out = append(out, key)
			if !a.Local() {
				j.ids = append(j.ids, a.FlowID)
				j.bits = a.Bits
			}
		}
		jobs = append(jobs, j)
	}
	for _, o := range ops {
		clock.t = o.time
		switch o.kind {
		case 0:
			as, err := cp.SelectReplicaAndPath(flowserver.Request{
				Client: o.client, Replicas: o.replicas, Bits: o.bits})
			if err != nil {
				t.Fatalf("select: %v", err)
			}
			record(as)
		case 1:
			as, err := cp.SelectWritePipeline(o.client, o.replicas, o.bits)
			if err != nil {
				t.Fatalf("select write: %v", err)
			}
			record(as)
		case 2:
			j := jobs[o.finishIdx]
			if !j.done {
				j.done = true
				for _, id := range j.ids {
					cp.FlowFinished(id)
				}
			}
		case 3:
			var batch []flowserver.FlowStat
			for _, j := range jobs {
				if j.done {
					continue
				}
				j.progress += j.bits * 0.07
				if j.progress > j.bits {
					j.progress = j.bits
				}
				for _, id := range j.ids {
					batch = append(batch, flowserver.FlowStat{ID: id, TransferredBits: j.progress})
				}
			}
			cp.PollFrom(o.time, batch, nil)
		}
	}
	return out
}

// TestPodLocalShardInvariance pins the partition's core guarantee: a
// workload whose transfers stay inside single pods takes identical
// decisions (replica, path, estimated share — ids aside) at every shard
// count, because every candidate path is wholly owned by its
// coordinator and scored by the exact local model.
func TestPodLocalShardInvariance(t *testing.T) {
	topo := testTopo(t)
	ops := genOps(23, topo, 600, true)
	var base []string
	for _, shards := range []int{1, 2, 4} {
		clock := &fakeClock{}
		plane, err := NewPlane(topo, Options{Shards: shards, Now: clock.Now})
		if err != nil {
			t.Fatal(err)
		}
		got := applyOps(t, plane, clock, ops, false)
		if base == nil {
			base = got
			continue
		}
		if !reflect.DeepEqual(base, got) {
			for i := range base {
				if i < len(got) && base[i] != got[i] {
					t.Fatalf("shards=%d diverges at record %d:\n1 shard: %s\n%d shards: %s",
						shards, i, base[i], shards, got[i])
				}
			}
			t.Fatalf("shards=%d record count %d, 1 shard %d", shards, len(got), len(base))
		}
	}
}

// TestCrossPodDeterminism pins run-to-run determinism of the sharded
// path on a workload that does exercise digests and foreign commits.
func TestCrossPodDeterminism(t *testing.T) {
	topo := testTopo(t)
	ops := genOps(37, topo, 600, false)
	var base []string
	for run := 0; run < 2; run++ {
		clock := &fakeClock{}
		plane, err := NewPlane(topo, Options{Shards: 2, Now: clock.Now})
		if err != nil {
			t.Fatal(err)
		}
		got := applyOps(t, plane, clock, ops, true)
		if plane.Metrics().CrossShard.Value() == 0 {
			t.Fatal("workload never crossed shards; test is vacuous")
		}
		if run == 0 {
			base = got
			continue
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatal("identical op stream produced different selections across runs")
		}
	}
}

// TestDigestStalenessBound pins the freshness contract: digests refresh
// on every poll, so the age a coordinator sees never exceeds the time
// since the last poll.
func TestDigestStalenessBound(t *testing.T) {
	topo := testTopo(t)
	clock := &fakeClock{}
	plane, err := NewPlane(topo, Options{Shards: 2, Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	// Commit a cross-pod flow so shard 1 has digest content. The polls
	// carry no counters, so it is sized to stay short of its freeze
	// horizon throughout: past it they would prove the flow over.
	client := topo.HostAt(0, 0, 0)
	rep := topo.HostAt(1, 0, 0)
	if _, err := plane.SelectReplicaAndPath(flowserver.Request{
		Client: client, Replicas: []topology.NodeID{rep}, Bits: 1e12}); err != nil {
		t.Fatal(err)
	}
	if _, ok := plane.Shard(0).DigestAge(1, clock.t); ok {
		t.Fatal("digest present before any poll")
	}
	const interval = 1.0
	for tick := 1; tick <= 5; tick++ {
		clock.t = float64(tick) * interval
		plane.PollFrom(clock.t, nil, nil)
		age, ok := plane.Shard(0).DigestAge(1, clock.t)
		if !ok || age != 0 {
			t.Fatalf("tick %d: age right after poll = (%g, %v), want (0, true)", tick, age, ok)
		}
		// Mid-interval the age is the time since the poll.
		clock.t += 0.7 * interval
		age, _ = plane.Shard(0).DigestAge(1, clock.t)
		if diff := age - 0.7*interval; diff < -1e-9 || diff > 1e-9 {
			t.Fatalf("tick %d: mid-interval age = %g, want %g", tick, age, 0.7*interval)
		}
		if age > interval {
			t.Fatalf("tick %d: staleness bound violated: %g > %g", tick, age, interval)
		}
	}
	// The digest actually carries the remote load: shard 1's links show
	// the committed flow.
	d := plane.Shard(1).BuildDigest(clock.t)
	if len(d.Links) == 0 {
		t.Error("shard 1 digest empty despite a committed cross-pod flow")
	}
}

// readFlow selects a one-replica read on plane and returns its flow id.
func readFlow(t *testing.T, plane *Plane, client, replica topology.NodeID, bits float64) flowserver.FlowID {
	t.Helper()
	as, err := plane.SelectReplicaAndPath(flowserver.Request{
		Client: client, Replicas: []topology.NodeID{replica}, Bits: bits})
	if err != nil || len(as) != 1 || as[0].Local() {
		t.Fatalf("select %d <- %d = %v, %v", client, replica, as, err)
	}
	return as[0].FlowID
}

// TestPollSkipsDeadShard: a shard the directory holds dead is out of the
// poll cycle. It neither retires a flow the poll proves over nor pulls
// its peers' digests, while the live shard does both.
func TestPollSkipsDeadShard(t *testing.T) {
	topo := testTopo(t)
	clock := &fakeClock{}
	plane, err := NewPlane(topo, Options{Shards: 2, Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	const bits = 1e9
	// Pod 1 belongs to shard 1, pod 0 to shard 0.
	dead := readFlow(t, plane, topo.HostAt(1, 0, 0), topo.HostAt(1, 1, 0), bits)
	live := readFlow(t, plane, topo.HostAt(0, 0, 0), topo.HostAt(0, 1, 0), bits)
	plane.Directory().MarkDead(1)
	var retired []flowserver.FlowID
	clock.t = 1
	plane.PollFrom(clock.t, []flowserver.FlowStat{
		{ID: dead, TransferredBits: bits}, {ID: live, TransferredBits: bits},
	}, func(ids []flowserver.FlowID, _ []flowserver.Assignment) { retired = append(retired, ids...) })
	if !reflect.DeepEqual(retired, []flowserver.FlowID{live}) {
		t.Errorf("poll retired %v, want only the live shard's flow %d", retired, live)
	}
	if n := plane.Shard(1).Server().NumFlows(); n != 1 {
		t.Errorf("dead shard models %d flows, want its 1 unretired flow", n)
	}
	if _, ok := plane.Shard(1).DigestAge(0, clock.t); ok {
		t.Error("dead shard refreshed its digests")
	}
	if _, ok := plane.Shard(0).DigestAge(1, clock.t); !ok {
		t.Error("live shard did not refresh its digests")
	}
	if n := plane.Metrics().DigestRefreshes.Value(); n != 1 {
		t.Errorf("digest refreshes = %d, want 1 (the live shard's)", n)
	}
}

// TestPollRetiresToHooksOnce: both shards holding a cross-shard flow
// prove it over on the same poll, and the hooks hear of it once. Shard 1
// coordinates it, so shard 0 retires its half before shard 1's poll
// would finish it remotely.
func TestPollRetiresToHooksOnce(t *testing.T) {
	topo := testTopo(t)
	clock := &fakeClock{}
	plane, err := NewPlane(topo, Options{Shards: 2, Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	const bits = 1e9
	cross := readFlow(t, plane, topo.HostAt(1, 0, 0), topo.HostAt(0, 0, 0), bits)
	local := readFlow(t, plane, topo.HostAt(0, 1, 0), topo.HostAt(0, 2, 0), bits)
	if plane.Shard(0).Server().NumFlows() != 2 || plane.Shard(1).Server().NumFlows() != 1 {
		t.Fatal("cross-shard flow is not modelled by both shards; test is vacuous")
	}
	calls := map[flowserver.FlowID]int{}
	clock.t = 1
	plane.PollFrom(clock.t, []flowserver.FlowStat{
		{ID: cross, TransferredBits: bits}, {ID: local, TransferredBits: bits},
	}, func(ids []flowserver.FlowID, _ []flowserver.Assignment) {
		for _, id := range ids {
			calls[id]++
		}
	})
	if want := map[flowserver.FlowID]int{cross: 1, local: 1}; !reflect.DeepEqual(calls, want) {
		t.Errorf("hooks saw retirements %v, want each flow once: %v", calls, want)
	}
	if n := plane.NumFlows(); n != 0 {
		t.Errorf("%d flow entries left after the poll retired every flow", n)
	}
}

// TestAuditDriftCountsEachFlowOnce: the audit samples every flow once,
// from its coordinator, whichever shards model it, and skips the flows
// a dead shard coordinates.
func TestAuditDriftCountsEachFlowOnce(t *testing.T) {
	topo := testTopo(t)
	plane, err := NewPlane(topo, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	const bits = 1e9
	local0 := readFlow(t, plane, topo.HostAt(0, 0, 0), topo.HostAt(0, 1, 0), bits)
	cross0 := readFlow(t, plane, topo.HostAt(0, 2, 0), topo.HostAt(1, 2, 0), bits)
	local1 := readFlow(t, plane, topo.HostAt(1, 0, 0), topo.HostAt(1, 1, 0), bits)
	cross1 := readFlow(t, plane, topo.HostAt(1, 3, 0), topo.HostAt(0, 3, 0), bits)
	audit := func() (*obs.DriftAuditor, []flowserver.FlowID) {
		a := obs.NewDriftAuditor()
		var seen []flowserver.FlowID
		plane.AuditDrift(a, func(id flowserver.FlowID) float64 {
			seen = append(seen, id)
			return 1e8
		})
		return a, seen
	}
	a, seen := audit()
	if want := []flowserver.FlowID{local0, cross0, local1, cross1}; !reflect.DeepEqual(seen, want) {
		t.Errorf("audited %v, want %v", seen, want)
	}
	if n := a.Samples.Value(); n != 4 {
		t.Errorf("samples = %d, want 4", n)
	}
	plane.Directory().MarkDead(1)
	a, seen = audit()
	if want := []flowserver.FlowID{local0, cross0}; !reflect.DeepEqual(seen, want) {
		t.Errorf("with shard 1 dead audited %v, want %v", seen, want)
	}
	if n := a.Samples.Value(); n != 2 {
		t.Errorf("with shard 1 dead samples = %d, want 2", n)
	}
}

// TestJointSelectionLeavesLoadedNearReplica holds §4.2's claim that
// Eq. 2 steers reads off a hot uplink: on an idle network the client's
// rack-mate replica wins, but once other readers share that replica's
// host uplink, joint replica-path selection pays a longer path to another
// replica because its completion time is shorter.
func TestJointSelectionLeavesLoadedNearReplica(t *testing.T) {
	topo := testTopo(t)
	client := topo.HostAt(0, 0, 0)
	near := topo.HostAt(0, 0, 1)
	replicas := []topology.NodeID{near, topo.HostAt(0, 2, 0), topo.HostAt(2, 1, 0)}
	const bits = 256 * 8e6 // a 256 MB block
	for load := 0; load <= 4; load++ {
		clock := &fakeClock{}
		plane, err := NewPlane(topo, Options{Shards: 1, Now: clock.Now})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < load; i++ {
			// Background readers in pod 0's other racks each pull a block
			// from the near replica.
			if _, err := plane.SelectReplicaAndPath(flowserver.Request{
				Client: topo.HostAt(0, 1+i%3, i%4), Replicas: []topology.NodeID{near}, Bits: bits}); err != nil {
				t.Fatal(err)
			}
		}
		as, err := plane.SelectReplicaAndPath(flowserver.Request{Client: client, Replicas: replicas, Bits: bits})
		if err != nil {
			t.Fatal(err)
		}
		if got := as[0].Replica; (got == near) != (load == 0) {
			t.Errorf("%d background reads: chose %s, want the near replica %s only on an idle network",
				load, topo.Node(got).Name, topo.Node(near).Name)
		}
	}
}

// TestNewPlaneValidation: the constructor rejects impossible shapes.
func TestNewPlaneValidation(t *testing.T) {
	topo := testTopo(t)
	if _, err := NewPlane(topo, Options{Shards: 0}); err == nil {
		t.Error("0 shards accepted")
	}
	if _, err := NewPlane(topo, Options{Shards: 2, MultiReplica: true}); err == nil {
		t.Error("multi-replica with 2 shards accepted")
	}
	if _, err := NewPlane(topo, Options{Shards: 8}); err == nil {
		t.Error("more shards than pods accepted")
	}
	if _, err := NewPlane(topo, Options{Shards: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestPlaneConcurrentUse exercises the sharded plane from concurrent
// goroutines (the RPC form serves shards concurrently); the -race run
// in CI is the assertion.
func TestPlaneConcurrentUse(t *testing.T) {
	topo := testTopo(t)
	clock := &fakeClock{}
	plane, err := NewPlane(topo, Options{Shards: 4, Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := topo.HostAt(w, 0, 0)
			rep := topo.HostAt((w+1)%4, 1, 1)
			for i := 0; i < 50; i++ {
				as, err := plane.SelectReplicaAndPath(flowserver.Request{
					Client: client, Replicas: []topology.NodeID{rep}, Bits: 1e8})
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				plane.FlowFinished(as[0].FlowID)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			plane.PollFrom(clock.Now(), nil, nil)
		}
	}()
	wg.Wait()
	if n := plane.NumFlows(); n != 0 {
		t.Errorf("%d flows leaked", n)
	}
}
