package flowctl

import (
	"context"
	"errors"
	"log"
	"slices"
	"sync"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/flowserver"
	"github.com/mayflower-dfs/mayflower/internal/sdn"
	"github.com/mayflower-dfs/mayflower/internal/topology"
)

// Switches is a shard's hold on the switches behind an SDN controller
// (§3.3.3): it installs a forwarding rule on every switch of an
// assigned path, removes those rules when the flow is retired, and
// reads the edge switches' per-flow byte counters for the stats poll.
// The daemon and the testbed drive their switches through this one
// type.
type Switches struct {
	topo *topology.Topology
	ctl  *sdn.Controller
	// timeout bounds one FlowStats collection (the poll interval: a
	// switch slower than that is skipped until the next cycle).
	timeout time.Duration

	mu      sync.Mutex
	paths   map[flowserver.FlowID]topology.Path // installed, until finished
	unknown map[uint64]bool                     // switches logged as not connected, until a batch reaches them
}

// NewSwitches drives the switches connected to ctl, which must carry
// the topology's switch node ids as datapath ids.
func NewSwitches(topo *topology.Topology, ctl *sdn.Controller, pollInterval time.Duration) *Switches {
	return &Switches{
		topo:    topo,
		ctl:     ctl,
		timeout: pollInterval,
		paths:   make(map[flowserver.FlowID]topology.Path),
		unknown: make(map[uint64]bool),
	}
}

// Hooks returns the hooks that keep the switches' flow tables equal to
// the set of live scheduled flows. The path is remembered per flow so a
// retirement touches only the switches that hold its rules. Without the
// removal a switch's table — and every stats reply it ships — grows
// with every flow it has ever forwarded. A control call's rule changes,
// removals and installs, reach each switch in one write (sdn Send).
func (sw *Switches) Hooks() flowserver.Hooks { return sw.apply }

func (sw *Switches) apply(retired []flowserver.FlowID, assigned []flowserver.Assignment) {
	var scratch [32]sdn.FlowMod // a call's batch: on the stack unless a poll retires many
	mods := scratch[:0]
	add := func(cmd uint8, id flowserver.FlowID, path topology.Path) {
		for _, l := range path { // l's rule is on the switch driving it, its port the link id
			if from := sw.topo.Link(l).From; sw.topo.Node(from).Kind != topology.KindHost {
				mods = append(mods, sdn.FlowMod{Switch: uint64(from), Cmd: cmd, FlowID: uint64(id), OutPort: uint32(l)})
			}
		}
	}
	sw.mu.Lock()
	for _, id := range retired {
		add(sdn.FlowDelete, id, sw.paths[id])
		delete(sw.paths, id)
	}
	for _, a := range assigned {
		if !a.Local() {
			sw.paths[a.FlowID] = a.Path
			add(sdn.FlowAdd, a.FlowID, a.Path)
		}
	}
	unknown := len(sw.unknown) > 0
	sw.mu.Unlock()
	if err := sw.ctl.Send(mods); err != nil || unknown {
		sw.report(mods, err)
	}
}

// report logs a batch's failures, an unconnected switch only once until a
// batch reaches it again: without agents every batch fails alike.
func (sw *Switches) report(mods []sdn.FlowMod, err error) {
	var connected []uint64
	if err != nil {
		connected = sw.ctl.Switches()
		for _, e := range err.(interface{ Unwrap() []error }).Unwrap() { // Send joins its failures
			if !errors.Is(e, sdn.ErrUnknownSwitch) {
				log.Printf("flowctl: rule changes: %v", e)
			}
		}
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	for _, m := range mods {
		if err == nil || slices.Contains(connected, m.Switch) {
			delete(sw.unknown, m.Switch) // so a switch that leaves again is logged again
		} else if !sw.unknown[m.Switch] {
			sw.unknown[m.Switch] = true
			log.Printf("flowctl: rule changes: %v: %d (logged once)", sdn.ErrUnknownSwitch, m.Switch)
		}
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
