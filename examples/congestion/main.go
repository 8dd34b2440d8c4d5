// Congestion: watch Mayflower's replica-path selection steer reads away
// from network hotspots — the behaviour that separates it from static
// "nearest replica" selection (§4 of the paper).
//
// The example builds the paper's 64-host testbed topology, places a
// client next to one replica, and progressively loads that replica's
// uplink with background flows. Selection flips from the nearby replica
// to remote ones exactly when the estimated completion time says it
// should.
//
//	go run ./examples/congestion
package main

import (
	"fmt"
	"log"

	"github.com/mayflower-dfs/mayflower/internal/flowctl"
	"github.com/mayflower-dfs/mayflower/internal/flowserver"
	"github.com/mayflower-dfs/mayflower/internal/netsim"
	"github.com/mayflower-dfs/mayflower/internal/topology"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	topo, err := topology.New(topology.PaperTestbed(8))
	if err != nil {
		return err
	}
	sim := netsim.New(topo)

	client := topo.HostAt(0, 0, 0)
	nearReplica := topo.HostAt(0, 0, 1) // same rack as the client
	podReplica := topo.HostAt(0, 2, 0)  // same pod
	farReplica := topo.HostAt(2, 1, 0)  // different pod
	replicas := []topology.NodeID{nearReplica, podReplica, farReplica}

	const readBits = 256 * 8e6 // a 256 MB block
	name := func(h topology.NodeID) string { return topo.Node(h).Name }
	fmt.Printf("client %s; replicas: near=%s pod=%s far=%s\n\n",
		name(client), name(nearReplica), name(podReplica), name(farReplica))

	// Progressively congest the near replica's rack: other clients keep
	// reading from it, eating the shared host uplink.
	for load := 0; load <= 4; load++ {
		probe, err := flowctl.NewPlane(topo, flowctl.Options{Shards: 1, Now: sim.Now})
		if err != nil {
			return err
		}
		for i := 0; i < load; i++ {
			// Each background reader sits in another rack of pod 0 and
			// pulls a full block from the near replica.
			bg := topo.HostAt(0, 1+i%3, i%4)
			if _, err := probe.SelectPath(bg, nearReplica, readBits); err != nil {
				return err
			}
		}
		// Eq. 2 cost of insisting on the nearest replica...
		nearPath := topo.ShortestPaths(nearReplica, client)[0]
		nearCost, nearBw := probe.Shard(0).Server().PathCost(nearReplica, nearPath, readBits)

		// ...versus what joint replica-path selection chooses.
		as, err := probe.SelectReplicaAndPath(flowserver.Request{
			Client:   client,
			Replicas: replicas,
			Bits:     readBits,
		})
		if err != nil {
			return err
		}
		choice := as[0]
		secs := choice.Bits / choice.EstimatedBw
		fmt.Printf("bg flows: %d | nearest replica: cost %5.1f s (share %4.0f Mbps) | chosen: %-16s est. %4.1f s\n",
			load, nearCost, nearBw/1e6, name(choice.Replica), secs)
	}

	fmt.Println("\nWith an idle network the nearest replica wins; once its uplink is")
	fmt.Println("shared with enough flows, Mayflower pays the longer path to a remote")
	fmt.Println("replica because the *completion time* is better — static nearest-replica")
	fmt.Println("selection would keep queueing on the hotspot.")
	return nil
}
