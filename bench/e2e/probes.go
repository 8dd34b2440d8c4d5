package e2e

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/dataserver"
	"github.com/mayflower-dfs/mayflower/internal/flowserver"
	"github.com/mayflower-dfs/mayflower/internal/kvstore"
	"github.com/mayflower-dfs/mayflower/internal/nameserver"
	"github.com/mayflower-dfs/mayflower/internal/rpc"
	"github.com/mayflower-dfs/mayflower/internal/topology"
	"github.com/mayflower-dfs/mayflower/internal/wire"
)

// Probes time calls into each layer's public client stub against the
// cluster the window just ran on, idle again apart from heartbeats and
// stats polls. They answer what the spans cannot see from outside: what
// one round trip through a single layer costs on this machine, today.
// Each probe is sized to finish in a fraction of a second; values are
// medians.

// timeEach runs fn n times and returns the median duration.
func timeEach(n int, fn func(i int) error) (time.Duration, error) {
	durs := make([]time.Duration, n)
	for i := range durs {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		durs[i] = time.Since(t0)
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	return durs[n/2], nil
}

// allocsEach runs fn n times and returns the process-wide heap
// allocations per call (count, KB). Background goroutines allocate too,
// but a probe loop outnumbers them by orders of magnitude.
func allocsEach(n int, fn func(i int) error) (count, kb float64, err error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / 1024 / float64(n), nil
}

// probeHost is where probe traffic originates: a host in the rack of
// file 0's primary that holds none of its replicas, so a lone read from
// it crosses exactly two edge links.
func (e *env) probeHost() (topology.NodeID, error) {
	topo := e.cluster.Topo
	f := e.files[0]
	held := make(map[topology.NodeID]bool)
	for _, h := range f.replicas {
		held[h] = true
	}
	p := topo.Node(f.replicas[0])
	for i := 0; i < topo.Config().HostsPerRack; i++ {
		if h := topo.HostAt(p.Pod, p.Rack, i); !held[h] {
			return h, nil
		}
	}
	return 0, fmt.Errorf("no replica-free host in the rack of %s", p.Name)
}

// probe runs every layer probe and files the results in got.
func (e *env) probe(got map[string]float64) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	topo := e.cluster.Topo
	f0 := e.files[0]
	host, err := e.probeHost()
	if err != nil {
		return err
	}
	hostName := topo.Node(host).Name
	replicaNames := make([]string, len(f0.replicas))
	for i, h := range f0.replicas {
		replicaNames[i] = topo.Node(h).Name
	}

	pool := rpc.NewPool(rpc.Options{})
	defer pool.Close()

	// client: Stat of a leased name is a lease hit plus one dataserver
	// size query.
	cl, err := e.newClient(host, false)
	if err != nil {
		return err
	}
	if _, err := cl.Stat(ctx, f0.name); err != nil {
		return err
	}
	d, err := timeEach(200, func(int) error { _, err := cl.Stat(ctx, f0.name); return err })
	if err != nil {
		return fmt.Errorf("client.Stat: %w", err)
	}
	got["client.meta_hit_us"] = us(d)

	// emunet: a lone 1 MiB read against what two uncontended edge links
	// would take. On the 100 Gbps topologies the ideal is 84 µs, so this
	// reads as the software data path's distance from line rate; on the
	// 64 Mbps one it is the pacer's own error.
	lone := min(e.spec.FileBytes, 1<<20)
	d, err = timeEach(3, func(int) error {
		data, err := cl.ReadAt(ctx, f0.name, 0, lone)
		if err == nil && int64(len(data)) != lone {
			err = fmt.Errorf("short read: %d", len(data))
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("lone read: %w", err)
	}
	ideal := float64(lone*8) / e.spec.Topo().EdgeLinkBps
	got["emunet.pace_overhead_pct"] = 100 * (d.Seconds()/ideal - 1)

	// nameserver: one Lookup; one Validate of 64 (name, version) pairs
	// under a stale epoch claim, so every pair is checked.
	ns := nameserver.NewClient(pool.Peer(e.cluster.NameserverAddr()))
	entries := make([]nameserver.ValidateEntry, 64)
	for i := range entries {
		info, err := ns.Lookup(ctx, e.files[i%len(e.files)].name)
		if err != nil {
			return fmt.Errorf("ns.Lookup: %w", err)
		}
		entries[i] = nameserver.ValidateEntry{Name: info.Name, Version: info.Version}
	}
	d, err = timeEach(300, func(int) error { _, err := ns.Lookup(ctx, f0.name); return err })
	if err != nil {
		return fmt.Errorf("ns.Lookup: %w", err)
	}
	got["nameserver.lookup_rtt_us"] = us(d)
	d, err = timeEach(100, func(int) error { _, _, err := ns.Validate(ctx, 0, entries); return err })
	if err != nil {
		return fmt.Errorf("ns.Validate: %w", err)
	}
	got["nameserver.validate64_rtt_us"] = us(d)

	// flowserver: each Select is released at once (held flows would
	// distort the model the next Select sees), and a bare Finished round
	// trip is subtracted, so rtt − flowserver.select_self_us is what rpc
	// and wire cost one call.
	fs := flowserver.NewRPCClient(pool.Peer(e.cluster.FlowserverAddr()))
	release := func(as []flowserver.AssignmentDTO) error {
		for _, a := range as {
			if !a.Local {
				if err := fs.Finished(ctx, a.FlowID); err != nil {
					return err
				}
			}
		}
		return nil
	}
	// An unknown flow id makes Finished a no-op that still crosses the
	// wire; its round trip is what releasing costs the timed pairs.
	fin, err := timeEach(200, func(int) error { return fs.Finished(ctx, 0) })
	if err != nil {
		return fmt.Errorf("fs.Finished: %w", err)
	}
	d, err = timeEach(200, func(int) error {
		as, err := fs.Select(ctx, flowserver.SelectArgs{ClientHost: hostName, ReplicaHosts: replicaNames, Bits: smallRead * 8})
		if err != nil {
			return err
		}
		return release(as)
	})
	if err != nil {
		return fmt.Errorf("fs.Select: %w", err)
	}
	got["flowserver.select_rtt_us"] = us(d - fin)
	d, err = timeEach(100, func(int) error {
		as, err := fs.SelectWrite(ctx, flowserver.SelectWriteArgs{SourceHost: replicaNames[0], TargetHosts: replicaNames[1:], Bits: appendBytes * 8})
		if err != nil {
			return err
		}
		return release(as)
	})
	if err != nil {
		return fmt.Errorf("fs.SelectWrite: %w", err)
	}
	got["flowserver.selectwrite_rtt_us"] = us(d - time.Duration(len(replicaNames)-1)*fin)

	// rpc / wire: a no-op method and a 256 KiB []byte field on a server
	// the harness owns, through an rpc.Peer like every control call.
	if err := e.probeEcho(ctx, pool, got); err != nil {
		return err
	}

	// dataserver: one 256 KiB append straight at a primary, to a
	// one-replica and to a three-replica file; the difference is the
	// relay (SelectWrite, two AppendAt hops, two Finished).
	payload := make([]byte, appendBytes)
	fillPattern(payload, 1, 0)
	for _, p := range []struct {
		metric   string
		replicas []topology.NodeID
	}{
		{"dataserver.append_r1_ms", f0.replicas[:1]},
		{"dataserver.append_r3_ms", f0.replicas},
	} {
		servers := make([]string, len(p.replicas))
		for i, h := range p.replicas {
			servers[i] = e.cluster.ServerID(h)
		}
		info, err := cl.Create(ctx, "e2e/probe-"+p.metric, nameserver.CreateOptions{ChunkSize: 64 << 20, PreferredReplicas: servers})
		if err != nil {
			return fmt.Errorf("create probe file: %w", err)
		}
		ds := dataserver.NewClient(pool.Peer(info.Primary().ControlAddr))
		d, err := timeEach(10, func(i int) error {
			_, err := ds.Append(ctx, dataserver.AppendArgs{FileID: info.ID, Name: info.Name, Data: payload, Seq: uint64(i + 1)})
			return err
		})
		if err != nil {
			return fmt.Errorf("ds.Append: %w", err)
		}
		got[p.metric] = ms(d)
	}
	got["dataserver.relay_ms"] = got["dataserver.append_r3_ms"] - got["dataserver.append_r1_ms"]

	// kvstore: a scratch store beside the cluster's. Nothing inside a
	// window creates files, so these move setup_s (through
	// nameserver.create_ms) and nothing else today.
	return e.probeKV(got)
}

type echoBlob struct {
	Data []byte `json:"data"`
}

func (e *env) probeEcho(ctx context.Context, pool *rpc.Pool, got map[string]float64) error {
	srv := wire.NewServer()
	if err := srv.Register("bench.Echo", func(context.Context, json.RawMessage) (any, error) {
		return struct{}{}, nil
	}); err != nil {
		return err
	}
	if err := srv.Register("bench.EchoLen", func(_ context.Context, params json.RawMessage) (any, error) {
		var b echoBlob
		if err := json.Unmarshal(params, &b); err != nil {
			return nil, err
		}
		return len(b.Data), nil
	}); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go srv.Serve(ln) //nolint:errcheck // Serve returns on Close
	defer srv.Close()
	peer := pool.Peer(ln.Addr().String())

	var out struct{}
	echo := func(int) error { return peer.Call(ctx, "bench.Echo", struct{}{}, &out) }
	if err := echo(0); err != nil { // dial outside the timing
		return fmt.Errorf("echo: %w", err)
	}
	d, err := timeEach(500, echo)
	if err != nil {
		return fmt.Errorf("echo: %w", err)
	}
	got["rpc.echo_rtt_us"] = us(d)
	if got["rpc.echo_allocs"], _, err = allocsEach(500, echo); err != nil {
		return err
	}

	blob := echoBlob{Data: make([]byte, appendBytes)}
	fillPattern(blob.Data, 2, 0)
	var n int
	echoLen := func(int) error {
		if err := peer.Call(ctx, "bench.EchoLen", blob, &n); err != nil {
			return err
		}
		if n != appendBytes {
			return fmt.Errorf("echo returned length %d", n)
		}
		return nil
	}
	d, err = timeEach(20, echoLen)
	if err != nil {
		return fmt.Errorf("echo 256k: %w", err)
	}
	got["wire.echo_256k_rtt_us"] = us(d)
	_, got["wire.echo_256k_alloc_KB"], err = allocsEach(20, echoLen)
	return err
}

func (e *env) probeKV(got map[string]float64) error {
	key := func(i int) []byte { return []byte(fmt.Sprintf("file/e2e/probe-%08d", i)) }
	val := make([]byte, 256) // about one FileInfo record
	run := func(name string, sync bool, fn func(st *kvstore.Store) error) error {
		st, err := kvstore.Open(filepath.Join(e.workDir, name), kvstore.Options{SyncWrites: sync})
		if err != nil {
			return err
		}
		err = fn(st)
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		return err
	}
	err := run("probe-kv", false, func(st *kvstore.Store) error {
		const n = 500
		d, err := timeEach(n, func(i int) error { return st.Put(key(i), val) })
		if err != nil {
			return err
		}
		got["kvstore.put_us"] = us(d)
		d, err = timeEach(2000, func(i int) error { _, _, err := st.Get(key(i % n)); return err })
		got["kvstore.get_us"] = us(d)
		return err
	})
	if err != nil {
		return fmt.Errorf("kvstore probe: %w", err)
	}
	err = run("probe-kv-sync", true, func(st *kvstore.Store) error {
		d, err := timeEach(20, func(i int) error { return st.Put(key(i), val) })
		got["kvstore.put_sync_us"] = us(d)
		return err
	})
	if err != nil {
		return fmt.Errorf("kvstore sync probe: %w", err)
	}
	return nil
}
