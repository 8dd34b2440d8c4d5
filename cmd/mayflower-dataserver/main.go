// Command mayflower-dataserver runs a Mayflower chunk storage server: a
// control RPC endpoint for prepares, appends and scans, and a bulk data
// endpoint for reads (§3.3.2 of the paper). It registers with the
// nameserver on startup.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"

	"github.com/mayflower-dfs/mayflower/internal/dataserver"
	"github.com/mayflower-dfs/mayflower/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mayflower-dataserver:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mayflower-dataserver", flag.ContinueOnError)
	var (
		id        = fs.String("id", "", "stable server identity (required)")
		root      = fs.String("root", "mayflower-data", "chunk store directory")
		host      = fs.String("host", "", "topology host name this server runs on (required)")
		pod       = fs.Int("pod", 0, "fault-domain pod index")
		rack      = fs.Int("rack", 0, "fault-domain rack index")
		ctlAddr   = fs.String("listen-control", "127.0.0.1:0", "control RPC listen address")
		dataAdr   = fs.String("listen-data", "127.0.0.1:0", "bulk data listen address")
		nsAddr    = fs.String("nameserver", "127.0.0.1:7000", "nameserver RPC address")
		fsrvAddr  = fs.String("flowserver", "", "flowserver address (the first shard's) for network-scheduled replication relays (optional; empty = static relay order)")
		debugAddr = fs.String("debug-addr", "", "serve /debug/metrics (runtime gauges) on this address")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" || *host == "" {
		return fmt.Errorf("-id and -host are required")
	}

	// The registry must exist before New so the server's control-plane
	// peer pool can publish its per-peer RPC counters into it.
	var reg *obs.Registry
	if *debugAddr != "" {
		reg = obs.NewRegistry()
		obs.RegisterRuntimeMetrics(reg)
	}
	srv, err := dataserver.New(dataserver.Config{
		ID:             *id,
		Root:           *root,
		Host:           *host,
		Pod:            *pod,
		Rack:           *rack,
		FlowserverAddr: *fsrvAddr,
		Logger:         log.Default(),
		Metrics:        reg,
	})
	if err != nil {
		return err
	}
	ctlLn, err := net.Listen("tcp", *ctlAddr)
	if err != nil {
		return err
	}
	dataLn, err := net.Listen("tcp", *dataAdr)
	if err != nil {
		ctlLn.Close()
		return err
	}
	if err := srv.Start(ctlLn, dataLn, *nsAddr); err != nil {
		return err
	}
	if *debugAddr != "" {
		dbg, bound, err := obs.Serve(*debugAddr, reg)
		if err != nil {
			srv.Close()
			return err
		}
		defer dbg.Close()
		log.Printf("dataserver %s: metrics on http://%s/debug/metrics", *id, bound)
	}
	log.Printf("dataserver %s on host %s: control %s, data %s", *id, *host, srv.ControlAddr(), srv.DataAddr())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	sig := <-sigc
	log.Printf("dataserver %s shutting down on %v", *id, sig)
	return srv.Close()
}
