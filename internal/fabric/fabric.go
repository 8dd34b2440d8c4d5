// Package fabric defines the network-backend contract both halves of
// the Mayflower evaluation run on. The paper evaluates twice — a
// flow-level simulation (§6.2–6.6) and a Mininet prototype (§6.7) — and
// the credibility of every reported figure rests on the two agreeing.
// This package is the seam that makes that agreement systematic instead
// of incidental: the simulator (package netsim) and the emulator
// (package emunet) both implement Backend, so one driver (package
// experiment) runs every scheme unchanged on either substrate.
//
// The contract has four parts:
//
//   - Flow admission and removal on a directed link path, with a
//     completion callback (Backend.StartFlow / CancelFlow), and the Gate
//     face that paces deployments that move their own bytes.
//
//   - Observability: the ground-truth per-flow rate, plus cumulative
//     per-flow and per-link byte counters — exactly what an OpenFlow
//     edge switch would export and what the Flowserver's stats polling
//     consumes (FlowRate, FlowTransferred, LinkTransferred).
//
//   - A pluggable clock (Clock): virtual event time in the simulator,
//     wall time — optionally compressed — in the emulator. All times
//     crossing the contract are float64 seconds since the backend's
//     origin.
//
//   - Change notification: SetRateNotify fires after any reallocation of
//     fair-share rates, and CounterSink receives byte credits as traffic
//     crosses links (the hook SDN switch agents hang off).
//
// Callback discipline: a backend never runs two driver callbacks
// (Schedule functions or flow OnComplete functions) concurrently, so a
// driver may keep unsynchronized state across them. The simulator gets
// this for free from its event loop; the emulator serializes callbacks
// explicitly. Relative ordering of callbacks scheduled at distinct times
// follows the clock; ordering within one instant is only deterministic
// on a virtual-time backend.
package fabric

import (
	"github.com/mayflower-dfs/mayflower/internal/topology"
)

// FlowID identifies a flow started on a Backend. IDs are assigned by the
// backend, unique within it, and never reused.
type FlowID int64

// FlowConfig describes a flow to start on a Backend.
type FlowConfig struct {
	// Links is the directed path the flow takes.
	Links []topology.LinkID
	// Bits is the amount of data to transfer.
	Bits float64
	// OnComplete, if non-nil, runs when the flow finishes, with the
	// completion time in backend seconds. It is a driver callback and is
	// serialized with all other driver callbacks.
	OnComplete func(endTime float64)
}

// Backend is a network substrate a driver can run a whole experiment
// trace on: it owns the clock, moves every admitted flow's bytes at the
// max-min fair share of the topology's links, and exposes the counters
// the control plane observes. netsim.Sim (virtual time, simulated bytes)
// and emunet.Fabric (wall or compressed time, real paced bytes) are the
// two implementations.
type Backend interface {
	// Topology returns the topology the backend runs over.
	Topology() *topology.Topology

	// Now returns the current backend time in seconds.
	Now() float64

	// Schedule runs fn at backend time t (>= Now) as a driver callback.
	Schedule(t float64, fn func())

	// StartFlow admits a flow at the current time and returns its id.
	// The backend moves the flow's bits at its fair share and invokes
	// cfg.OnComplete when the last bit lands.
	StartFlow(cfg FlowConfig) FlowID

	// CancelFlow removes a flow without running its completion callback.
	// Cancelling an unknown (or already finished) flow is a no-op.
	CancelFlow(id FlowID)

	// FlowRate returns the ground-truth current fair-share rate of a flow
	// in bits per second, or 0 if the flow is not active.
	FlowRate(id FlowID) float64

	// FlowTransferred returns the cumulative bits delivered for an active
	// flow: the per-flow byte counter an edge switch would export. It
	// returns 0 for unknown flows (counters for completed flows are gone,
	// as they are when a switch evicts a flow-table entry).
	FlowTransferred(id FlowID) float64

	// LinkTransferred returns the cumulative bits forwarded over a
	// directed link: the port byte counter of the switch driving it.
	LinkTransferred(id topology.LinkID) float64

	// SetLinkCapacity changes the capacity of one directed link
	// (bps >= 0; zero models a dead link, starving every flow crossing
	// it). Affected fair shares are recomputed.
	SetLinkCapacity(id topology.LinkID, bps float64)

	// NumActiveFlows returns the number of in-flight flows.
	NumActiveFlows() int

	// SetRateNotify installs fn to run after every fair-share
	// reallocation (admission, removal, capacity change). fn must be
	// fast and must not call back into the backend. nil uninstalls.
	SetRateNotify(fn func())

	// Run drives the backend until all scheduled work and all admitted
	// flows have completed. It returns an error if progress became
	// impossible (e.g. flows starved on a dead link with no further
	// events pending, on backends that can detect it).
	Run() error
}

// Gate is the pacing face of a backend whose bytes an external data
// plane moves (the emulator under the real testbed, whose dataservers
// stream them): it grants a registered flow time on the wire and counts
// what the data plane sent in it, but never touches the bytes, so a
// sender can hand each quantum to the kernel in one call (the
// dataserver's sendfile loop).
type Gate interface {
	// Next blocks until the flow may send its next quantum and returns
	// the quantum's size in bytes, at most max (max > 0) — or 0 when none
	// was granted within one starved poll (a dead link), so the sender
	// can check whether to give up before it asks again.
	Next(max int64) int64
	// Sent credits n bytes that actually went out to the flow's and
	// path's counters.
	Sent(n int64)
}

// CounterSink receives byte credits as traffic crosses directed links.
// It is the seam through which SDN switch agents (package sdn) mirror
// fabric traffic into their OpenFlow-style per-flow and per-port
// counters. Implementations must be safe for concurrent use; backends
// may invoke them with internal locks held, so a sink must not call back
// into the backend.
type CounterSink interface {
	CreditBytes(flowID uint64, link topology.LinkID, bytes uint64)
}
