package flowctl

import (
	"context"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/flowserver"
	"github.com/mayflower-dfs/mayflower/internal/rpc"
	"github.com/mayflower-dfs/mayflower/internal/sdn"
	"github.com/mayflower-dfs/mayflower/internal/topology"
	"github.com/mayflower-dfs/mayflower/internal/wire"
)

// flowModLen is the size of one FlowMod frame on the wire.
const flowModLen = 23

// writeLog records the size of every write the controller makes to one
// switch.
type writeLog struct {
	net.Conn
	mu     sync.Mutex
	writes []int
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.writes = append(w.writes, len(p))
	w.mu.Unlock()
	return w.Conn.Write(p)
}

func (w *writeLog) since(n int) []int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return slices.Clone(w.writes[n:])
}

func (w *writeLog) len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.writes)
}

type logListener struct {
	net.Listener
	conns chan *writeLog
}

func (l logListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	w := &writeLog{Conn: conn}
	l.conns <- w
	return w, nil
}

// ruleRig is a one-shard control plane driving real switch agents over
// the SDN protocol, as the daemon does, with every controller-to-switch
// write logged.
type ruleRig struct {
	topo     *topology.Topology
	shard    *Shard
	switches *Switches
	agents   []*sdn.Switch
	logs     map[topology.NodeID]*writeLog
	peer     *rpc.Peer
	now      float64
}

func newRuleRig(t *testing.T) *ruleRig {
	t.Helper()
	topo, err := topology.New(topology.Config{
		Pods: 1, RacksPerPod: 2, HostsPerRack: 2, AggsPerPod: 2, Cores: 1,
		EdgeLinkBps: 1e9, EdgeAggLinkBps: 1e9, AggCoreLinkBps: 1e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := &ruleRig{topo: topo, logs: make(map[topology.NodeID]*writeLog)}
	ctl := sdn.NewController()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conns := make(chan *writeLog, 1)
	if err := ctl.Serve(logListener{Listener: ln, conns: conns}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctl.Close() })
	for _, nodes := range [][]topology.NodeID{topo.EdgeSwitches(), topo.AggSwitches(), topo.CoreSwitches()} {
		for _, n := range nodes {
			agent := sdn.NewSwitch(uint64(n))
			if err := agent.Connect(ln.Addr().String()); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { agent.Close() })
			r.agents = append(r.agents, agent)
			r.logs[n] = <-conns // switches connect one at a time
		}
	}
	for deadline := time.Now().Add(3 * time.Second); len(ctl.Switches()) < len(r.agents); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("switches never said HELLO")
		}
	}

	r.switches = NewSwitches(topo, ctl, time.Second)
	r.shard, err = NewShard(topo, ShardConfig{Shards: 1, Now: func() float64 { return r.now }})
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer()
	if err := RegisterShardRPC(srv, r.shard, r.switches.Hooks()); err != nil {
		t.Fatal(err)
	}
	sln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(sln)
	t.Cleanup(func() { srv.Close() })
	pool := rpc.NewPool(rpc.Options{})
	t.Cleanup(func() { pool.Close() })
	r.peer = pool.Peer(sln.Addr().String())
	return r
}

func (r *ruleRig) host(rack, idx int) string { return r.topo.Node(r.topo.HostAt(0, rack, idx)).Name }

// mark returns each switch's write count, for writesSince.
func (r *ruleRig) mark() map[topology.NodeID]int {
	m := make(map[topology.NodeID]int)
	for n, w := range r.logs {
		m[n] = w.len()
	}
	return m
}

// writesSince returns the writes each switch was sent after mark.
func (r *ruleRig) writesSince(mark map[topology.NodeID]int) map[topology.NodeID][]int {
	out := make(map[topology.NodeID][]int)
	for n, w := range r.logs {
		if ws := w.since(mark[n]); len(ws) > 0 {
			out[n] = ws
		}
	}
	return out
}

func (r *ruleRig) rules() int {
	n := 0
	for _, a := range r.agents {
		n += a.NumFlows()
	}
	return n
}

// TestSelectSendsReleaseAndPathInOneWrite: a Select whose Done releases
// a flow through the same switches as its new path sends each of them
// one write, the release's removal and the new rule together.
func TestSelectSendsReleaseAndPathInOneWrite(t *testing.T) {
	r := newRuleRig(t)
	ctx := context.Background()
	args := flowserver.SelectArgs{ClientHost: r.host(0, 0), ReplicaHosts: []string{r.host(1, 0)}, Bits: 8e6}
	first, err := flowserver.MethodSelect.Call(ctx, r.peer, args)
	if err != nil || len(first) != 1 || first[0].Local {
		t.Fatalf("Select = %v, %v; want one network flow", first, err)
	}
	mark := r.mark()
	args.Done = []flowserver.FlowID{first[0].FlowID}
	if _, err := flowserver.MethodSelect.Call(ctx, r.peer, args); err != nil {
		t.Fatal(err)
	}
	got := r.writesSince(mark)
	for _, edge := range []topology.NodeID{r.topo.EdgeOf(r.topo.HostAt(0, 0, 0)), r.topo.EdgeOf(r.topo.HostAt(0, 1, 0))} {
		if ws := got[edge]; len(ws) != 1 || ws[0] != 2*flowModLen {
			t.Errorf("edge switch %d was sent writes of %v bytes, want one carrying both FlowMods", edge, ws)
		}
	}
	for n, ws := range got {
		if len(ws) != 1 {
			t.Errorf("switch %d was sent %d writes in one call, want 1", n, len(ws))
		}
	}
}

// TestSelectWriteSendsOneWritePerSwitch: a two-hop SelectWrite sends each
// switch its rules of both hops in one write.
func TestSelectWriteSendsOneWritePerSwitch(t *testing.T) {
	r := newRuleRig(t)
	mark := r.mark()
	as, err := flowserver.MethodSelectWrite.Call(context.Background(), r.peer, flowserver.SelectWriteArgs{
		SourceHost: r.host(0, 0), TargetHosts: []string{r.host(1, 0), r.host(1, 1)}, Bits: 8e6,
	})
	if err != nil || len(as) != 2 {
		t.Fatalf("SelectWrite = %v, %v; want two hops", as, err)
	}
	got := r.writesSince(mark)
	bytes := 0
	for n, ws := range got {
		if len(ws) != 1 {
			t.Errorf("switch %d was sent %d writes in one call, want 1", n, len(ws))
		}
		for _, w := range ws {
			bytes += w
		}
	}
	// Each hop crosses the source's edge, an agg and the targets' edge.
	if bytes != 6*flowModLen {
		t.Errorf("the call sent %d bytes of rules, want six FlowMods", bytes)
	}
	for _, h := range []topology.NodeID{r.topo.HostAt(0, 0, 0), r.topo.HostAt(0, 1, 0)} {
		if ws := got[r.topo.EdgeOf(h)]; len(ws) != 1 || ws[0] != 2*flowModLen {
			t.Errorf("edge switch %d was sent writes of %v bytes, want one carrying both hops' FlowMods", r.topo.EdgeOf(h), ws)
		}
	}
}

// TestPollRetirementEmptiesSwitchTables: a flow whose release never
// comes leaves every switch table once the daemon's poll line — the
// flows a poll proves over, retired through Switches.Hooks — runs.
func TestPollRetirementEmptiesSwitchTables(t *testing.T) {
	r := newRuleRig(t)
	as, err := flowserver.MethodSelect.Call(context.Background(), r.peer, flowserver.SelectArgs{
		ClientHost: r.host(0, 0), ReplicaHosts: []string{r.host(1, 0)}, Bits: 8e6,
	})
	if err != nil || len(as) != 1 || as[0].Local {
		t.Fatalf("Select = %v, %v; want one network flow", as, err)
	}
	for deadline := time.Now().Add(3 * time.Second); r.rules() != 3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("switches hold %d rules after the Select, want 3", r.rules())
		}
	}
	for range 2 * flowserver.StallPolls {
		r.now++
		r.switches.Hooks().Retire(r.shard, r.shard.Server().UpdateFlowStats(r.now, r.switches.FlowStats())...)
	}
	if n := r.shard.Server().NumFlows(); n != 0 {
		t.Fatalf("the model holds %d flows after the polls, want 0", n)
	}
	for deadline := time.Now().Add(3 * time.Second); r.rules() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("switches still hold %d rules after the polls retired their flow", r.rules())
		}
	}
}

// TestCallBatchAllocatesNothing: one control call's rule batch — a new
// path's installs, then its removal — allocates nothing in steady state,
// at the controller or, once they have applied it, at the switches.
func TestCallBatchAllocatesNothing(t *testing.T) {
	r := newRuleRig(t)
	as, err := r.shard.SelectReplicaAndPath(flowserver.Request{
		Client: r.topo.HostAt(0, 0, 0), Replicas: []topology.NodeID{r.topo.HostAt(0, 1, 0)}, Bits: 8e6,
	})
	if err != nil || len(as) != 1 || as[0].Local() {
		t.Fatalf("select = %v, %v; want one network flow", as, err)
	}
	hooks, done := r.switches.Hooks(), []flowserver.FlowID{as[0].FlowID}
	applied := func(want int) {
		for r.rules() != want {
			time.Sleep(10 * time.Microsecond)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		hooks(nil, as)
		applied(3)
		hooks(done, nil)
		applied(0)
	})
	if allocs != 0 {
		t.Errorf("a call's rule batch allocates %v times, want 0", allocs)
	}
}
