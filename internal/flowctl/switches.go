package flowctl

import (
	"context"
	"log"
	"sync"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/flowserver"
	"github.com/mayflower-dfs/mayflower/internal/sdn"
	"github.com/mayflower-dfs/mayflower/internal/topology"
)

// Switches is a shard's hold on the switches behind an SDN controller
// (§3.3.3): it installs a forwarding rule on every switch of an
// assigned path, removes those rules when the flow is reported
// finished, and reads the edge switches' per-flow byte counters for the
// stats poll. The daemon and the testbed drive their switches through
// this one type.
type Switches struct {
	topo *topology.Topology
	ctl  *sdn.Controller
	// timeout bounds one FlowStats collection (the poll interval: a
	// switch slower than that is skipped until the next cycle).
	timeout time.Duration

	mu    sync.Mutex
	paths map[flowserver.FlowID]topology.Path // installed, until finished
}

// NewSwitches drives the switches connected to ctl, which must carry
// the topology's switch node ids as datapath ids.
func NewSwitches(topo *topology.Topology, ctl *sdn.Controller, pollInterval time.Duration) *Switches {
	return &Switches{
		topo:    topo,
		ctl:     ctl,
		timeout: pollInterval,
		paths:   make(map[flowserver.FlowID]topology.Path),
	}
}

// ruleSwitch names the switch that forwards link l (its out port is
// the link id); ok is false for a host-driven link, which has no switch
// to program.
func (sw *Switches) ruleSwitch(l topology.LinkID) (dpid uint64, ok bool) {
	from := sw.topo.Link(l).From
	return uint64(from), sw.topo.Node(from).Kind != topology.KindHost
}

// Hooks returns the assignment hooks that keep the switches' flow
// tables equal to the set of live scheduled flows. The path is
// remembered per flow so a finish touches only the switches that hold
// its rules. Without the removal a switch's table — and every stats
// reply it ships — grows with every flow it has ever forwarded.
func (sw *Switches) Hooks() flowserver.Hooks {
	return flowserver.Hooks{
		OnAssign: func(a flowserver.Assignment) {
			sw.mu.Lock()
			sw.paths[a.FlowID] = a.Path
			sw.mu.Unlock()
			for _, l := range a.Path {
				dpid, ok := sw.ruleSwitch(l)
				if !ok {
					continue
				}
				if err := sw.ctl.InstallFlow(dpid, uint64(a.FlowID), uint32(l)); err != nil {
					log.Printf("flowctl: install flow %d on switch %d: %v", a.FlowID, dpid, err)
				}
			}
		},
		OnFinish: func(id flowserver.FlowID) {
			sw.mu.Lock()
			path := sw.paths[id]
			delete(sw.paths, id)
			sw.mu.Unlock()
			for _, l := range path {
				if dpid, ok := sw.ruleSwitch(l); ok {
					_ = sw.ctl.RemoveFlow(dpid, uint64(id)) // a departed switch took its table with it
				}
			}
		},
	}
}

// FlowStats implements flowserver.StatsSource by querying the edge
// switches' flow byte counters over the OpenFlow-style control
// protocol, exactly as §3.3.3 describes ("flow stats are collected for
// only those flows that originate from dataservers attached to the edge
// switch being queried"). A flow crossing two edge switches reports the
// larger counter.
func (sw *Switches) FlowStats() []flowserver.FlowStat {
	ctx, cancel := context.WithTimeout(context.Background(), sw.timeout)
	defer cancel()
	byFlow := make(map[flowserver.FlowID]float64)
	for _, edge := range sw.topo.EdgeSwitches() {
		stats, err := sw.ctl.FlowStats(ctx, uint64(edge))
		if err != nil {
			continue
		}
		for _, st := range stats {
			id := flowserver.FlowID(st.FlowID)
			if bits := float64(st.ByteCount) * 8; bits > byFlow[id] {
				byFlow[id] = bits
			}
		}
	}
	batch := make([]flowserver.FlowStat, 0, len(byFlow))
	for id, bits := range byFlow {
		batch = append(batch, flowserver.FlowStat{ID: id, TransferredBits: bits})
	}
	return batch
}
