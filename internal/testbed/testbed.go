// Package testbed assembles a full in-process Mayflower deployment over
// the emulated datacenter network: SDN switches and controller, the
// Flowserver running as a controller application, a nameserver, one
// dataserver per host, and per-host clients. It is the prototype half of
// the paper's evaluation (§6.1, §6.7) — the stand-in for the authors'
// 13-machine Mininet testbed — and drives Figure 8's comparison of
// Mayflower against HDFS with and without network flow scheduling.
//
// Everything is real: RPCs cross loopback TCP sockets, chunk data lives
// in real files, reads stream real bytes, the Flowserver polls real
// switch byte counters over the OpenFlow-style control protocol. Only
// link bandwidth is emulated, by pacing each read flow at the max-min
// fair share of the topology's links (package emunet) — the property the
// paper obtained from Mininet's link shaping.
package testbed

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/client"
	"github.com/mayflower-dfs/mayflower/internal/dataserver"
	"github.com/mayflower-dfs/mayflower/internal/emunet"
	"github.com/mayflower-dfs/mayflower/internal/fabric"
	"github.com/mayflower-dfs/mayflower/internal/flowctl"
	"github.com/mayflower-dfs/mayflower/internal/flowserver"
	"github.com/mayflower-dfs/mayflower/internal/kvstore"
	"github.com/mayflower-dfs/mayflower/internal/nameserver"
	"github.com/mayflower-dfs/mayflower/internal/obs"
	"github.com/mayflower-dfs/mayflower/internal/rpc"
	"github.com/mayflower-dfs/mayflower/internal/sdn"
	"github.com/mayflower-dfs/mayflower/internal/selection"
	"github.com/mayflower-dfs/mayflower/internal/topology"
	"github.com/mayflower-dfs/mayflower/internal/wire"
)

// Mode selects the filesystem configuration under test (Figure 8).
type Mode int

// Figure 8 modes.
const (
	// ModeMayflower is the full co-design: joint replica and path
	// selection by the Flowserver.
	ModeMayflower Mode = iota + 1
	// ModeHDFSMayflower uses HDFS's rack-aware replica selection with
	// Mayflower's network flow scheduler choosing the path.
	ModeHDFSMayflower
	// ModeHDFSECMP uses HDFS's rack-aware replica selection with ECMP
	// paths: the conventional deployment.
	ModeHDFSECMP
)

// String names the mode as Figure 8 labels it.
func (m Mode) String() string {
	switch m {
	case ModeMayflower:
		return "Mayflower"
	case ModeHDFSMayflower:
		return "HDFS-Mayflower"
	case ModeHDFSECMP:
		return "HDFS-ECMP"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ScaledTestbed returns a laptop-scale version of the paper's testbed: 16
// hosts in 2 pods × 2 racks × 4 hosts with the same 2:1 edge and 8:1
// core-to-rack oversubscription, at 64 Mbps edge links so a full sweep
// finishes in seconds. Completion-time ratios between modes are invariant
// to this joint (size, rate) scaling; see DESIGN.md.
func ScaledTestbed() topology.Config {
	edge := topology.Mbps(64)
	return topology.Config{
		Pods:         2,
		RacksPerPod:  2,
		HostsPerRack: 4,
		AggsPerPod:   2,
		Cores:        2,
		EdgeLinkBps:  edge,
		// Rack host bandwidth 1024 Mbps over two uplinks at 2:1.
		EdgeAggLinkBps: edge,
		// Pod host bandwidth 2048 Mbps over four agg-core links at 8:1
		// overall.
		AggCoreLinkBps: edge / 4,
	}
}

// statsInterval is the Flowserver's switch polling period: the scaled
// testbed compresses time ~8x relative to the paper's testbed, which
// polled at seconds granularity.
const statsInterval = 250 * time.Millisecond

// Cluster is a running deployment.
type Cluster struct {
	Topo  *topology.Topology
	Net   *emunet.Network
	clock fabric.Clock

	mode       Mode
	controller *sdn.Controller
	switches   []*sdn.Switch
	bridge     *sdn.CounterBridge

	// Flow control plane (the flow-scheduled modes): each plane shard
	// serves its own wire endpoint — shard 0's also serves the shard
	// directory — and the pool carries shard-to-shard ctl.* traffic.
	// ofSwitches is the shards' shared hold on the switches.
	ofSwitches *flowctl.Switches
	plane      *flowctl.Plane
	shardSrvs  []*wire.Server
	shardAddrs []string
	shardPool  *rpc.Pool
	nsSvc      *nameserver.Service
	nsStore    *kvstore.Store
	nsSrv      *wire.Server
	nsAddr     string
	servers    map[string]*dataserver.Server // host name → dataserver
	serverIDs  map[topology.NodeID]string    // host node → server id
	workDir    string
	ownWorkDir bool

	pollStop chan struct{}
	pollDone chan struct{}

	// Observability (nil unless ClusterConfig.Metrics was set): the
	// poll loop audits estimate-vs-truth drift against the emulated
	// fabric.
	reg   *obs.Registry
	audit *obs.DriftAuditor

	ecmp   *selection.ECMP
	nextID atomic.Uint64

	mu      sync.Mutex
	clients map[string]*client.Client
	extra   []*client.Client
	rng     *rand.Rand
	closed  bool
}

// ClusterConfig configures NewCluster.
type ClusterConfig struct {
	// Mode selects the Figure 8 configuration.
	Mode Mode
	// Topo is the emulated topology; ScaledTestbed() if zero.
	Topo topology.Config
	// WorkDir holds chunk stores and the nameserver database; a fresh
	// temporary directory (removed on Close) if empty.
	WorkDir string
	// Seed drives placement and selection randomness.
	Seed int64
	// MultiReplica enables §4.3 split reads (ModeMayflower only).
	MultiReplica bool
	// FlowShards is the number of flowctl shards the flow controller runs
	// as (0 means 1), each serving its own RPC endpoint; clients and
	// dataservers resolve pod ownership through the shard directory
	// (epoch-checked re-routing). Only the flow-scheduled modes use it.
	// More than one is incompatible with MultiReplica.
	FlowShards int
	// HeartbeatInterval is how often dataservers report liveness
	// (dataserver default if zero). Fault-injection tests shrink it so
	// death detection fits in test time.
	HeartbeatInterval time.Duration
	// Metrics, when non-nil, receives the deployment's counters: the
	// Flowserver's selection/poll metrics, the emulated fabric's
	// reallocation metrics, each dataserver's write-path and per-peer
	// control-plane RPC counters ("dataserver.<id>.rpc.peer.<addr>.*"),
	// and (merged in on Close, under "testbed.drift.*") a flow-model
	// drift audit comparing the Flowserver's bandwidth estimates against
	// the fabric's true fair shares on every stats poll.
	Metrics *obs.Registry
}

// NewCluster boots a deployment and blocks until every component is
// connected and registered.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Mode == 0 {
		cfg.Mode = ModeMayflower
	}
	if cfg.Topo.Pods == 0 {
		cfg.Topo = ScaledTestbed()
	}
	topo, err := topology.New(cfg.Topo)
	if err != nil {
		return nil, err
	}
	net := emunet.New(topo)
	c := &Cluster{
		Topo:      topo,
		Net:       net,
		clock:     net.Clock(),
		mode:      cfg.Mode,
		servers:   make(map[string]*dataserver.Server),
		serverIDs: make(map[topology.NodeID]string),
		clients:   make(map[string]*client.Client),
		rng:       rand.New(rand.NewSource(cfg.Seed + 1)),
		pollStop:  make(chan struct{}),
		pollDone:  make(chan struct{}),
		workDir:   cfg.WorkDir,
		reg:       cfg.Metrics,
	}
	if c.reg != nil {
		net.AttachMetrics(c.reg)
		c.audit = obs.NewDriftAuditor()
	}
	if c.workDir == "" {
		dir, err := os.MkdirTemp("", "mayflower-testbed-*")
		if err != nil {
			return nil, err
		}
		c.workDir = dir
		c.ownWorkDir = true
	}
	if err := c.boot(cfg); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

func (c *Cluster) boot(cfg ClusterConfig) error {
	// SDN control plane: a switch agent per topology switch, all dialed
	// into one controller.
	c.controller = sdn.NewController()
	ctlAddr, err := c.controller.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	c.bridge = sdn.NewCounterBridge(c.Topo)
	switchNodes := append(append(c.Topo.EdgeSwitches(), c.Topo.AggSwitches()...), c.Topo.CoreSwitches()...)
	for _, node := range switchNodes {
		sw := sdn.NewSwitch(uint64(node))
		if err := sw.Connect(ctlAddr.String()); err != nil {
			return err
		}
		if err := c.bridge.Attach(node, sw); err != nil {
			return err
		}
		c.switches = append(c.switches, sw)
	}
	c.Net.SetCounterSink(c.bridge)
	deadline := time.Now().Add(10 * time.Second)
	for len(c.controller.Switches()) < len(switchNodes) {
		if time.Now().After(deadline) {
			return errors.New("testbed: switches did not connect")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Nameserver.
	store, err := kvstore.Open(c.workDir+"/nameserver", kvstore.Options{})
	if err != nil {
		return err
	}
	c.nsStore = store
	c.nsSvc, err = nameserver.NewService(store, rand.New(rand.NewSource(cfg.Seed+2)))
	if err != nil {
		return err
	}
	c.nsSrv = wire.NewServer()
	if err := nameserver.RegisterRPC(c.nsSrv, c.nsSvc); err != nil {
		return err
	}
	nsLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go c.nsSrv.Serve(nsLn) //nolint:errcheck // Serve returns on Close
	c.nsAddr = nsLn.Addr().String()

	// Flow control plane (controller application), for the modes that use
	// it.
	if c.mode == ModeMayflower || c.mode == ModeHDFSMayflower {
		if err := c.bootFlowplane(cfg); err != nil {
			return err
		}
		go c.pollLoop()
	} else {
		close(c.pollDone)
		c.ecmp = selection.NewECMP(c.Topo)
	}

	// One dataserver per host.
	for i, h := range c.Topo.Hosts() {
		node := c.Topo.Node(h)
		id := fmt.Sprintf("ds-%02d", i)
		ds, err := dataserver.New(dataserver.Config{
			ID:                id,
			Root:              fmt.Sprintf("%s/%s", c.workDir, id),
			Host:              node.Name,
			Pod:               node.Pod,
			Rack:              node.Rack,
			Pacer:             c.Net,
			HeartbeatInterval: cfg.HeartbeatInterval,
			Metrics:           c.reg,
			// Empty for the ECMP modes: relays fall back to static order,
			// the conventional unscheduled write path.
			FlowserverAddr: c.FlowserverAddr(),
			Clock:          c.clock,
		})
		if err != nil {
			return err
		}
		ctlLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			ds.Close()
			return err
		}
		dataLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			ds.Close()
			return err
		}
		if err := ds.Start(ctlLn, dataLn, c.nsAddr); err != nil {
			ds.Close()
			return err
		}
		c.servers[node.Name] = ds
		c.serverIDs[h] = id
	}
	return nil
}

// nowSeconds is the deployment's time base: the fabric clock, so the
// Flowserver's freeze horizons and stats timestamps share pacing's clock.
func (c *Cluster) nowSeconds() float64 { return c.clock.Now() }

// flowHooks bridges selection commits into the emulated fabric and the
// switches' flow tables; shared by every shard (a cross-shard selection
// still returns one full-path assignment from its coordinator, so each
// flow registers exactly once). A retired flow leaves the fabric first:
// once unregistered it credits no more switch counters, so removing its
// rules afterwards cannot race a late credit back into a switch.
func (c *Cluster) flowHooks() flowserver.Hooks {
	sw := c.ofSwitches.Hooks()
	return func(retired []flowserver.FlowID, assigned []flowserver.Assignment) {
		for _, id := range retired {
			c.Net.UnregisterFlow(uint64(id))
		}
		for _, a := range assigned {
			if !a.Local() {
				_ = c.Net.RegisterFlow(uint64(a.FlowID), a.Path)
			}
		}
		sw(retired, assigned)
	}
}

// bootFlowplane boots the flowctl plane and serves each shard on its
// own wire endpoint (fs.* selection surface plus the ctl.* peer channel;
// shard 0's also serves the fd.* directory, as in a deployment), then
// swaps the plane's direct shard links for RPC links, so digest pulls
// and foreign commits cross loopback TCP, as the testbed ethos demands.
func (c *Cluster) bootFlowplane(cfg ClusterConfig) error {
	n := max(1, cfg.FlowShards)
	plane, err := flowctl.NewPlane(c.Topo, flowctl.Options{
		Shards:       n,
		MultiReplica: cfg.MultiReplica && c.mode == ModeMayflower,
		Now:          c.nowSeconds,
		Metrics:      c.reg,
	})
	if err != nil {
		return err
	}
	c.ofSwitches = flowctl.NewSwitches(c.Topo, c.controller, statsInterval)
	c.shardPool = rpc.NewPool(rpc.Options{})
	for k := 0; k < n; k++ {
		srv := wire.NewServer()
		if err := flowctl.RegisterShardRPC(srv, plane.Shard(k), c.flowHooks()); err != nil {
			return err
		}
		if k == 0 {
			if err := flowctl.RegisterDirectoryRPC(srv, plane.Directory(), c.nowSeconds); err != nil {
				return err
			}
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		go srv.Serve(ln) //nolint:errcheck // Serve returns on Close
		c.shardSrvs = append(c.shardSrvs, srv)
		c.shardAddrs = append(c.shardAddrs, ln.Addr().String())
		// Register the endpoint under an effectively unbounded lease:
		// the testbed kills shards explicitly (KillFlowShard), it does
		// not simulate silent heartbeat loss.
		if _, err := plane.Directory().Heartbeat(k, ln.Addr().String(), c.nowSeconds(), 1e18); err != nil {
			return err
		}
	}
	for k := 0; k < n; k++ {
		links := make([]flowctl.ShardLink, n)
		for j := range links {
			if j != k {
				links[j] = flowctl.NewRPCShardLink(c.shardPool.Peer(c.shardAddrs[j]), nil)
			}
		}
		plane.Shard(k).SetPeers(links)
	}
	c.plane = plane
	return nil
}

// pollLoop runs the plane's stats cycle on the switches' flow counters
// every statsInterval, then audits its estimates against the fabric.
func (c *Cluster) pollLoop() {
	defer close(c.pollDone)
	ticker := time.NewTicker(statsInterval)
	defer ticker.Stop()
	hooks := c.flowHooks()
	truth := func(id flowserver.FlowID) float64 {
		rate, _ := c.Net.FlowRate(uint64(id))
		return rate
	}
	for {
		select {
		case <-c.pollStop:
			return
		case <-ticker.C:
		}
		c.plane.PollFrom(c.nowSeconds(), c.ofSwitches.FlowStats(), hooks)
		if c.audit != nil {
			c.plane.AuditDrift(c.audit, truth)
		}
	}
}

// NameserverAddr returns the nameserver's RPC address.
func (c *Cluster) NameserverAddr() string { return c.nsAddr }

// FlowserverAddr returns the flow control plane's address: shard 0's
// endpoint, which serves the shard directory beside its own selection
// surface ("" for ECMP mode).
func (c *Cluster) FlowserverAddr() string {
	if len(c.shardAddrs) == 0 {
		return ""
	}
	return c.shardAddrs[0]
}

// Plane exposes the flow control plane to fault scenarios and tests (nil in
// ECMP mode).
func (c *Cluster) Plane() *flowctl.Plane { return c.plane }

// KillFlowShard abruptly stops flow shard k — its wire endpoint closes
// mid-conversation for any in-flight callers — and marks it dead in the
// directory, which promotes its pods to the next live shard under a
// bumped epoch. Surviving shards adopt the new ownership map at once;
// clients and dataservers discover it when their cached routes fail or
// their TTLs lapse. The shard stays down for the cluster's lifetime.
// Shard 0 takes the directory endpoint down with it, as the shard-0
// process of a deployment would: routes cached against it then stay as
// they are, and callers without one run degraded. The flows it
// coordinated leave emunet and the switch tables at once, as a failover
// flushing the dead controller's rules would: no poll would prove them
// over, and their releases go to the closed endpoint.
func (c *Cluster) KillFlowShard(k int) error {
	if k < 0 || k >= len(c.shardSrvs) {
		return fmt.Errorf("testbed: no flow shard %d", k)
	}
	if len(c.shardSrvs) == 1 {
		return errors.New("testbed: cannot kill the only flow shard")
	}
	dir := c.plane.Directory()
	if !dir.Alive(k) {
		return fmt.Errorf("testbed: flow shard %d already dead", k)
	}
	c.shardSrvs[k].Close()
	epoch, changed := dir.MarkDead(k)
	if !changed {
		return nil
	}
	var orphans []flowserver.FlowID
	c.plane.Coordinated(k, func(id flowserver.FlowID, _ float64) { orphans = append(orphans, id) })
	if len(orphans) > 0 {
		c.flowHooks()(orphans, nil)
	}
	owner, _ := dir.Owners()
	for j := range c.shardSrvs {
		if j != k {
			c.plane.Shard(j).SetOwners(owner, epoch)
		}
	}
	return nil
}

// ServerID returns the dataserver id running on a topology host.
func (c *Cluster) ServerID(h topology.NodeID) string { return c.serverIDs[h] }

// Client returns (creating on first use) a filesystem client running on
// the given topology host, configured for the cluster's mode.
func (c *Cluster) Client(host topology.NodeID) (*client.Client, error) {
	name := c.Topo.Node(host).Name
	c.mu.Lock()
	defer c.mu.Unlock()
	if cl, ok := c.clients[name]; ok {
		return cl, nil
	}
	cl, err := client.New(c.clientOptionsLocked(name))
	if err != nil {
		return nil, err
	}
	c.clients[name] = cl
	return cl, nil
}

func (c *Cluster) clientOptionsLocked(name string) client.Options {
	opts := client.Options{
		NameserverAddr: c.nsAddr,
		Host:           name,
		Rand:           rand.New(rand.NewSource(c.rng.Int63())),
		// Leases expire on the fabric clock, like everything else here.
		Clock: c.clock,
	}
	switch c.mode {
	case ModeMayflower:
		opts.FlowserverAddr = c.FlowserverAddr()
	case ModeHDFSMayflower:
		opts.FlowserverAddr = c.FlowserverAddr()
		opts.PickReplica = c.hdfsPicker(name)
	case ModeHDFSECMP:
		opts.PickReplica = c.hdfsPicker(name)
		opts.AssignFlow = func(replicaHost string, _ int64) (uint64, func()) {
			return c.assignECMPFlow(replicaHost, name)
		}
	}
	return opts
}

// hdfsPicker returns HDFS's rack-aware read policy (§6.7), the same
// selection.HDFSRackAware the simulator runs, for a client on the named
// host. One client's reads run concurrently, so the picker serializes
// its draws; it owns its rng, seeded from the cluster's. Clients and
// replicas all sit on topology hosts, and the nameserver never hands
// out an empty replica set, so neither lookup nor selection can fail.
func (c *Cluster) hdfsPicker(name string) func(nameserver.FileInfo) nameserver.ReplicaLoc {
	hdfs := selection.NewHDFSRackAware(c.Topo, rand.New(rand.NewSource(c.rng.Int63())))
	self, _ := c.Topo.HostByName(name)
	var mu sync.Mutex
	return func(info nameserver.FileInfo) nameserver.ReplicaLoc {
		ids := make([]topology.NodeID, len(info.Replicas))
		for i, rep := range info.Replicas {
			ids[i], _ = c.Topo.HostByName(rep.Host)
		}
		mu.Lock()
		pick, _ := hdfs.SelectReplica(self, ids)
		mu.Unlock()
		return info.Replicas[slices.Index(ids, pick)]
	}
}

// NewClient builds an extra client with the cluster's options for the
// host after applying mutate (nil for stock options). Unlike Client, the
// result is not shared or cached, but it is closed with the cluster.
func (c *Cluster) NewClient(host topology.NodeID, mutate func(*client.Options)) (*client.Client, error) {
	name := c.Topo.Node(host).Name
	c.mu.Lock()
	opts := c.clientOptionsLocked(name)
	c.mu.Unlock()
	if mutate != nil {
		mutate(&opts)
	}
	cl, err := client.New(opts)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.extra = append(c.extra, cl)
	c.mu.Unlock()
	return cl, nil
}

// NameserverService exposes the in-process nameserver for liveness
// inspection and repair passes.
func (c *Cluster) NameserverService() *nameserver.Service { return c.nsSvc }

// DataserverAddrs returns the control and data endpoint addresses of the
// dataserver on the named host, so fault injectors can map dial targets
// back to topology locations.
func (c *Cluster) DataserverAddrs(hostName string) (ctlAddr, dataAddr string, err error) {
	ds, ok := c.servers[hostName]
	if !ok {
		return "", "", fmt.Errorf("testbed: no dataserver on host %q", hostName)
	}
	return ds.ControlAddr(), ds.DataAddr(), nil
}

// KillDataserver abruptly stops the dataserver on the named host
// (severing in-flight reads and stopping heartbeats) and returns its
// server id. The process stays down for the cluster's lifetime — the
// repair path, not a restart, restores replication.
func (c *Cluster) KillDataserver(hostName string) (string, error) {
	ds, ok := c.servers[hostName]
	if !ok {
		return "", fmt.Errorf("testbed: no dataserver on host %q", hostName)
	}
	h, _ := c.Topo.HostByName(hostName)
	return c.serverIDs[h], ds.Close()
}

// assignECMPFlow registers an ECMP-selected path for a transfer from
// replicaHost to clientHost with the emulated network.
func (c *Cluster) assignECMPFlow(replicaHost, clientHost string) (uint64, func()) {
	src, foundSrc := c.Topo.HostByName(replicaHost)
	dst, foundDst := c.Topo.HostByName(clientHost)
	if !foundSrc || !foundDst || src == dst {
		return 0, nil
	}
	id := c.nextID.Add(1)
	path, err := c.ecmp.SelectPath(src, dst, id)
	if err != nil {
		return 0, nil
	}
	if err := c.Net.RegisterFlow(id, path); err != nil {
		return 0, nil
	}
	return id, func() { c.Net.UnregisterFlow(id) }
}

// Close tears the whole deployment down.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	clients := make([]*client.Client, 0, len(c.clients)+len(c.extra))
	for _, cl := range c.clients {
		clients = append(clients, cl)
	}
	clients = append(clients, c.extra...)
	c.mu.Unlock()

	if c.plane != nil {
		close(c.pollStop)
		<-c.pollDone
	}
	if c.audit != nil {
		c.audit.MergeInto(c.reg, "testbed.drift")
	}
	for _, cl := range clients {
		cl.Close()
	}
	for _, ds := range c.servers {
		ds.Close()
	}
	for _, srv := range c.shardSrvs {
		srv.Close()
	}
	if c.shardPool != nil {
		c.shardPool.Close()
	}
	if c.nsSrv != nil {
		c.nsSrv.Close()
	}
	if c.nsStore != nil {
		c.nsStore.Close()
	}
	var err error
	if c.controller != nil {
		err = c.controller.Close()
	}
	for _, sw := range c.switches {
		sw.Close()
	}
	if c.ownWorkDir {
		os.RemoveAll(c.workDir)
	}
	return err
}
