package paxos

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/wire"
)

// localTransport delivers messages to a node in-process, optionally
// through a fault gate.
type localTransport struct {
	node *Node
	mu   sync.Mutex
	down bool
}

func (t *localTransport) setDown(v bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.down = v
}

func (t *localTransport) isDown() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.down
}

func (t *localTransport) Prepare(_ context.Context, a PrepareArgs) (PrepareReply, error) {
	if t.isDown() {
		return PrepareReply{}, errors.New("down")
	}
	return t.node.HandlePrepare(a), nil
}

func (t *localTransport) Accept(_ context.Context, a AcceptArgs) (AcceptReply, error) {
	if t.isDown() {
		return AcceptReply{}, errors.New("down")
	}
	return t.node.HandleAccept(a), nil
}

func (t *localTransport) Learn(_ context.Context, a LearnArgs) error {
	if t.isDown() {
		return errors.New("down")
	}
	t.node.HandleLearn(a)
	return nil
}

// appliedLog records applications in order.
type appliedLog struct {
	mu      sync.Mutex
	entries []string
}

func (l *appliedLog) add(slot int64, v []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries = append(l.entries, fmt.Sprintf("%d:%s", slot, v))
}

func (l *appliedLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, len(l.entries))
	copy(out, l.entries)
	return out
}

// cluster builds n in-process nodes with full connectivity.
func cluster(t *testing.T, n int) ([]*Node, []*appliedLog, map[int64]*localTransport) {
	t.Helper()
	logs := make([]*appliedLog, n)
	nodes := make([]*Node, n)
	gates := make(map[int64]*localTransport, n)

	// Create nodes first with empty peer maps, then wire transports.
	peerMaps := make([]map[int64]Transport, n)
	for i := 0; i < n; i++ {
		peerMaps[i] = make(map[int64]Transport)
	}
	for i := 0; i < n; i++ {
		logs[i] = &appliedLog{}
		log := logs[i]
		node, err := NewNode(Config{
			ID:    int64(i),
			Peers: peerMaps[i],
			Apply: log.add,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	for i := 0; i < n; i++ {
		gate := &localTransport{node: nodes[i]}
		gates[int64(i)] = gate
		for j := 0; j < n; j++ {
			if i != j {
				peerMaps[j][int64(i)] = gate
			}
		}
	}
	return nodes, logs, gates
}

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestSingleProposerCommits(t *testing.T) {
	nodes, logs, _ := cluster(t, 3)
	slot, err := nodes[0].Propose(ctxT(t), []byte("cmd-a"))
	if err != nil {
		t.Fatal(err)
	}
	if slot != 0 {
		t.Errorf("slot = %d, want 0", slot)
	}
	if v, ok := nodes[0].Chosen(0); !ok || string(v) != "cmd-a" {
		t.Errorf("Chosen(0) = %q, %v", v, ok)
	}
	waitFor(t, func() bool {
		for _, l := range logs {
			if len(l.snapshot()) != 1 {
				return false
			}
		}
		return true
	})
	for i, l := range logs {
		if got := l.snapshot()[0]; got != "0:cmd-a" {
			t.Errorf("node %d applied %q", i, got)
		}
	}
}

func TestSequentialProposals(t *testing.T) {
	nodes, logs, _ := cluster(t, 3)
	for i := 0; i < 10; i++ {
		if _, err := nodes[0].Propose(ctxT(t), []byte(fmt.Sprintf("cmd-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return len(logs[0].snapshot()) == 10 })
	for i, e := range logs[0].snapshot() {
		want := fmt.Sprintf("%d:cmd-%d", i, i)
		if e != want {
			t.Errorf("entry %d = %q, want %q", i, e, want)
		}
	}
}

func TestConcurrentProposersAllCommitAllConverge(t *testing.T) {
	nodes, logs, _ := cluster(t, 3)
	const perNode = 8
	var wg sync.WaitGroup
	for i, node := range nodes {
		i, node := i, node
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perNode; k++ {
				if _, err := node.Propose(ctxT(t), []byte(fmt.Sprintf("n%d-%d", i, k))); err != nil {
					t.Errorf("node %d proposal %d: %v", i, k, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	total := perNode * len(nodes)
	// Everyone learns everything (learn broadcasts are async).
	waitFor(t, func() bool {
		for _, n := range nodes {
			if n.Applied() < int64(total) {
				return false
			}
		}
		return true
	})
	// All logs identical and containing every command exactly once.
	ref := logs[0].snapshot()[:total]
	seen := make(map[string]int)
	for _, e := range ref {
		seen[e[2:]]++ // strip "s:" prefix loosely; slots < 10 here may be 2 chars — use full entry instead
	}
	_ = seen
	for i := 1; i < len(logs); i++ {
		got := logs[i].snapshot()[:total]
		for k := range ref {
			if got[k] != ref[k] {
				t.Fatalf("log divergence at %d: node0=%q node%d=%q", k, ref[k], i, got[k])
			}
		}
	}
	// Exactly-once per submission: count distinct command payloads.
	cmds := make(map[string]int)
	for _, e := range ref {
		cmds[e] = cmds[e] + 1
	}
	if len(cmds) != total {
		t.Errorf("expected %d distinct commands, got %d", total, len(cmds))
	}
}

// TestConcurrentLearnsApplyInSlotOrder: a learn that finds its prefix
// ready while another goroutine is still inside Apply must wait for it,
// not apply the later slot first. Slot 1 arrives before slot 0 (a gap),
// slot 0's learner then blocks inside Apply(0), and a third goroutine
// learns slot 2 meanwhile.
func TestConcurrentLearnsApplyInSlotOrder(t *testing.T) {
	var log appliedLog
	entered, release := make(chan struct{}), make(chan struct{})
	n, err := NewNode(Config{ID: 0, Apply: func(slot int64, v []byte) {
		if slot == 0 {
			close(entered)
			<-release
		}
		log.add(slot, v)
	}})
	if err != nil {
		t.Fatal(err)
	}
	n.HandleLearn(LearnArgs{Slot: 1, Value: []byte("b")})
	learned := func(slot int64, v string) chan struct{} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			n.HandleLearn(LearnArgs{Slot: slot, Value: []byte(v)})
		}()
		return done
	}
	zero := learned(0, "a")
	<-entered
	two := learned(2, "c")
	select {
	case <-two:
		t.Errorf("learn of slot 2 returned while Apply(0) was still running; applied so far: %v", log.snapshot())
	case <-time.After(50 * time.Millisecond): // only gives the bug time to show
	}
	if got := n.Applied(); got != 0 {
		t.Errorf("Applied() = %d while Apply(0) has not returned, want 0", got)
	}
	close(release)
	<-zero
	<-two
	if got, want := fmt.Sprint(log.snapshot()), "[0:a 1:b 2:c]"; got != want {
		t.Errorf("applied %s, want %s", got, want)
	}
}

func TestCommitsWithMinorityDown(t *testing.T) {
	nodes, logs, gates := cluster(t, 5)
	gates[3].setDown(true)
	gates[4].setDown(true)

	if _, err := nodes[0].Propose(ctxT(t), []byte("majority")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(logs[1].snapshot()) == 1 })

	// Recovered nodes catch up via CatchUp after the partition heals.
	gates[3].setDown(false)
	gates[4].setDown(false)
	if err := nodes[3].CatchUp(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return nodes[3].Applied() >= 1 })
	if got := logs[3].snapshot(); len(got) == 0 || got[0] != "0:majority" {
		t.Errorf("recovered node applied %v", got)
	}
}

func TestNoQuorumFails(t *testing.T) {
	nodes, _, gates := cluster(t, 3)
	gates[1].setDown(true)
	gates[2].setDown(true)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	_, err := nodes[0].Propose(ctx, []byte("doomed"))
	if err == nil {
		t.Fatal("proposal committed without a quorum")
	}
}

// TestSlotSafety checks the core Paxos invariant under dueling proposers:
// a slot never commits two different values. We force both proposers at
// the same slot by driving runSlot directly.
func TestSlotSafety(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		nodes, _, _ := cluster(t, 3)
		var wg sync.WaitGroup
		results := make([][]byte, 2)
		for i, node := range nodes[:2] {
			i, node := i, node
			wg.Add(1)
			go func() {
				defer wg.Done()
				v, err := node.runSlot(ctxT(t), 0, []byte(fmt.Sprintf("v%d", i)))
				if err == nil {
					results[i] = v
				}
			}()
		}
		wg.Wait()
		if results[0] != nil && results[1] != nil && string(results[0]) != string(results[1]) {
			t.Fatalf("trial %d: slot 0 chose both %q and %q", trial, results[0], results[1])
		}
	}
}

func TestNewNodeValidation(t *testing.T) {
	if _, err := NewNode(Config{ID: -1, Apply: func(int64, []byte) {}}); err == nil {
		t.Error("negative id accepted")
	}
	if _, err := NewNode(Config{ID: 0}); err == nil {
		t.Error("nil Apply accepted")
	}
	self := map[int64]Transport{0: &localTransport{}}
	if _, err := NewNode(Config{ID: 0, Peers: self, Apply: func(int64, []byte) {}}); err == nil {
		t.Error("self peer accepted")
	}
}

func TestBallotOrdering(t *testing.T) {
	a := Ballot{Round: 1, Node: 0}
	b := Ballot{Round: 1, Node: 1}
	c := Ballot{Round: 2, Node: 0}
	if !a.Less(b) || !b.Less(c) || c.Less(a) {
		t.Error("ballot ordering broken")
	}
	if !(Ballot{}).IsZero() || a.IsZero() {
		t.Error("IsZero broken")
	}
}

// TestRPCTransportEndToEnd replicates across three nodes over real TCP.
func TestRPCTransportEndToEnd(t *testing.T) {
	const n = 3
	logs := make([]*appliedLog, n)
	nodes := make([]*Node, n)
	addrs := make([]string, n)
	servers := make([]*wire.Server, n)
	peerMaps := make([]map[int64]Transport, n)

	for i := 0; i < n; i++ {
		peerMaps[i] = make(map[int64]Transport)
		logs[i] = &appliedLog{}
		node, err := NewNode(Config{ID: int64(i), Peers: peerMaps[i], Apply: logs[i].add})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		srv := wire.NewServer()
		if err := RegisterRPC(srv, node); err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		servers[i] = srv
		addrs[i] = ln.Addr().String()
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			tr := NewRPCTransport(addrs[j])
			t.Cleanup(func() { tr.Close() })
			peerMaps[i][int64(j)] = tr
		}
	}

	for k := 0; k < 5; k++ {
		proposer := nodes[k%n]
		if _, err := proposer.Propose(ctxT(t), []byte(fmt.Sprintf("rpc-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		for _, node := range nodes {
			if node.Applied() < 5 {
				return false
			}
		}
		return true
	})
	ref := logs[0].snapshot()
	for i := 1; i < n; i++ {
		got := logs[i].snapshot()
		for k := range ref {
			if got[k] != ref[k] {
				t.Fatalf("divergence at %d: %q vs %q", k, ref[k], got[k])
			}
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not met within deadline")
}
