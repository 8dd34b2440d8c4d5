// Command mayflower-flowserver runs Mayflower's Flowserver as a
// standalone SDN controller application (§3.3.3 of the paper): software
// switches dial its OpenFlow-style controller port, it polls their byte
// counters to model per-flow bandwidth, and it serves the replica-path
// selection RPC that clients (or any other distributed application — the
// service is not tied to Mayflower, §5) call before starting a transfer.
//
// The process is one shard of the flowctl control plane — by default the
// only one, owning every pod. With -shards N (and -shard-id K) it serves
// selections for the pods the shard directory assigns it and exchanges
// foreign commits and utilization digests with its peer shards (-peers).
// Shard 0 hosts the directory on its -listen port beside the selection
// surface, and every shard renews an epoch-numbered lease against it:
// -listen of shard 0 is the one control-plane address clients and
// dataservers are given, and they re-route on epoch bumps.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/flowctl"
	"github.com/mayflower-dfs/mayflower/internal/obs"
	"github.com/mayflower-dfs/mayflower/internal/rpc"
	"github.com/mayflower-dfs/mayflower/internal/sdn"
	"github.com/mayflower-dfs/mayflower/internal/topology"
	"github.com/mayflower-dfs/mayflower/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mayflower-flowserver:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mayflower-flowserver", flag.ContinueOnError)
	var (
		rpcAddr   = fs.String("listen", "127.0.0.1:7100", "replica-path selection RPC listen address")
		ofAddr    = fs.String("controller-listen", "127.0.0.1:6633", "OpenFlow-style controller listen address")
		poll      = fs.Duration("poll", time.Second, "switch stats polling interval")
		multi     = fs.Bool("multiread", false, "enable §4.3 multi-replica read splitting")
		pods      = fs.Int("pods", 4, "topology: pods")
		racks     = fs.Int("racks", 4, "topology: racks per pod")
		hosts     = fs.Int("hosts", 4, "topology: hosts per rack")
		aggs      = fs.Int("aggs", 2, "topology: aggregation switches per pod")
		cores     = fs.Int("cores", 2, "topology: core switches")
		edgeMbps  = fs.Float64("edge-mbps", 1000, "edge link capacity (Mbps)")
		eaMbps    = fs.Float64("edgeagg-mbps", 1000, "edge-aggregation link capacity (Mbps)")
		acMbps    = fs.Float64("aggcore-mbps", 500, "aggregation-core link capacity (Mbps)")
		debugAddr = fs.String("debug-addr", "", "serve /debug/metrics (selection/poll counters, runtime gauges) on this address")

		shards    = fs.Int("shards", 1, "total flowctl shard count")
		shardID   = fs.Int("shard-id", 0, "this process's shard index in [0, shards); shard 0 hosts the shard directory")
		peers     = fs.String("peers", "", "comma-separated addresses of all shards as clients dial them, index-ordered (required when -shards > 1; with one shard, set it when -listen is not dialable as written)")
		heartbeat = fs.Duration("heartbeat", time.Second, "shard lease renewal interval; the lease TTL is 3x this")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var addrs []string
	if *peers != "" {
		for _, a := range strings.Split(*peers, ",") {
			addrs = append(addrs, strings.TrimSpace(a))
		}
	}
	if (*shards > 1 || addrs != nil) && len(addrs) != *shards {
		return fmt.Errorf("-peers lists %d addresses for %d shards", len(addrs), *shards)
	}

	topo, err := topology.New(topology.Config{
		Pods:           *pods,
		RacksPerPod:    *racks,
		HostsPerRack:   *hosts,
		AggsPerPod:     *aggs,
		Cores:          *cores,
		EdgeLinkBps:    topology.Mbps(*edgeMbps),
		EdgeAggLinkBps: topology.Mbps(*eaMbps),
		AggCoreLinkBps: topology.Mbps(*acMbps),
	})
	if err != nil {
		return err
	}

	controller := sdn.NewController()
	ofBound, err := controller.Listen(*ofAddr)
	if err != nil {
		return err
	}
	defer controller.Close()

	reg := obs.NewRegistry()
	start := time.Now()
	now := func() float64 { return time.Since(start).Seconds() }

	pool := rpc.NewPool(rpc.Options{Metrics: reg, MetricsPrefix: "flowserver.rpc"})
	defer pool.Close()
	met := flowctl.NewMetrics()
	met.Register(reg)
	shard, err := flowctl.NewShard(topo, flowctl.ShardConfig{
		Index:        *shardID,
		Shards:       *shards,
		MultiReplica: *multi,
		Now:          now,
		Metrics:      met,
	})
	if err != nil {
		return err
	}
	mkCtx := func() (context.Context, context.CancelFunc) {
		return context.WithTimeout(context.Background(), 2*time.Second)
	}
	links := make([]flowctl.ShardLink, *shards)
	for k, a := range addrs {
		if k != *shardID {
			links[k] = flowctl.NewRPCShardLink(pool.Peer(a), mkCtx)
		}
	}
	shard.SetPeers(links)

	if *debugAddr != "" {
		obs.RegisterRuntimeMetrics(reg)
		dbg, bound, err := obs.Serve(*debugAddr, reg)
		if err != nil {
			return err
		}
		defer dbg.Close()
		log.Printf("flowserver: metrics on http://%s/debug/metrics", bound)
	}

	switches := flowctl.NewSwitches(topo, controller, *poll)
	rpcSrv := wire.NewServer()
	if err := flowctl.RegisterShardRPC(rpcSrv, shard, switches.Hooks()); err != nil {
		return err
	}
	if *shardID == 0 {
		dir, err := flowctl.NewDirectory(*pods, *shards)
		if err != nil {
			return err
		}
		if err := flowctl.RegisterDirectoryRPC(rpcSrv, dir, now); err != nil {
			return err
		}
	}
	ln, err := net.Listen("tcp", *rpcAddr)
	if err != nil {
		return err
	}
	errc := make(chan error, 1)
	go func() { errc <- rpcSrv.Serve(ln) }()
	log.Printf("flowserver: shard %d/%d RPC on %s, controller on %s, polling every %v", *shardID, *shards, ln.Addr(), ofBound, *poll)

	// The address this shard registers in the directory is the one
	// callers will dial; the directory itself is at shard 0's.
	selAddr := ln.Addr().String()
	if addrs != nil {
		selAddr = addrs[*shardID]
	}
	dirAddr := selAddr
	if *shardID != 0 {
		dirAddr = addrs[0]
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	go pollStats(shard, switches, *poll, now, stop, done)
	go heartbeatLoop(pool, dirAddr, shard, selAddr, *heartbeat, stop)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		close(stop)
		<-done
		return err
	case sig := <-sigc:
		log.Printf("flowserver shutting down on %v", sig)
		close(stop)
		<-done
		return rpcSrv.Close()
	}
}

// heartbeatLoop registers this shard with the directory at once (a
// Lookup cannot name its address before that) and then renews the lease
// every interval. Each reply carries the directory's pod→shard map and
// its epoch, so when ownership moved while this shard was (or appeared)
// away, the shard starts honoring (or refusing) the pods the directory
// says it owns; SetOwners ignores a map older than the one it holds.
func heartbeatLoop(pool *rpc.Pool, dirAddr string, shard *flowctl.Shard,
	selAddr string, interval time.Duration, stop <-chan struct{}) {

	dc := flowctl.NewDirectoryClient(pool.Peer(dirAddr))
	ttl := 3 * interval.Seconds()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		ctx, cancel := context.WithTimeout(context.Background(), interval)
		rep, err := dc.Heartbeat(ctx, shard.Index(), selAddr, ttl)
		cancel()
		if err == nil {
			shard.SetOwners(rep.Owners, rep.Epoch)
		}
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
	}
}

// pollStats periodically collects per-flow byte counters from the edge
// switches into the shard's bandwidth model, retires the flows a poll
// proves over (their release never came), and then refreshes the peer
// digests, which is what bounds cross-shard staleness to the poll
// cadence.
func pollStats(shard *flowctl.Shard, switches *flowctl.Switches, interval time.Duration, now func() float64, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		switches.Hooks().Retire(shard, shard.Server().UpdateFlowStats(now(), switches.FlowStats())...)
		shard.RefreshDigests()
	}
}
