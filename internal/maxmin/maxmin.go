// Package maxmin implements max-min fair bandwidth sharing.
//
// It provides two layers used throughout the Mayflower reproduction:
//
//   - Allocate: a global progressive-filling (water-filling) allocator over
//     an arbitrary set of capacitated links and multi-link flows: the
//     reference the fabric arbiter (fabric.Table), which both network
//     substrates take their rates from, is tested against.
//
//   - Single-link estimators (ShareOnLink, SharesWithNewFlow): the
//     calculation the Mayflower Flowserver performs when evaluating a
//     candidate path (§4.2 of the paper). Existing flows contribute their
//     currently-measured bandwidth share as their demand; the new flow has
//     infinite demand; capacity is divided equally up to each flow's demand.
//
// Callers on a hot path should use an Alloc, which keeps every scratch
// buffer across calls; the package-level functions allocate fresh slices
// each call but compute bit-identical results (both run the same filling
// loop).
//
// All rates and capacities are in bits per second (any consistent unit
// works); Inf is a valid demand meaning "unbounded".
package maxmin

import (
	"math"
)

// Flow describes one flow for Allocate: the set of directed link indices it
// traverses and its demand (use math.Inf(1) for an unbounded flow).
type Flow struct {
	Links  []int
	Demand float64
}

// epsilon bounds for float comparisons; rates are O(1e9) so 1e-6 relative
// precision is ample.
const eps = 1e-9

// Allocate computes the max-min fair rate for each flow given per-link
// capacities. capacity is indexed by link id; every link id in a flow must
// be a valid index. A flow with no links is limited only by its demand. The
// returned slice is parallel to flows.
//
// The algorithm is progressive filling: all unfrozen flows' rates rise at
// the same pace; a flow freezes when it reaches its demand or when one of
// its links saturates. This terminates in at most len(flows) iterations.
func Allocate(capacity []float64, flows []Flow) []float64 {
	rates := make([]float64, len(flows))
	if len(flows) == 0 {
		return rates
	}
	remaining := make([]float64, len(capacity))
	active := make([]bool, len(flows))
	activeOnLink := make([]int, len(capacity))
	allocate(capacity, flows, rates, remaining, active, activeOnLink)
	return rates
}

// allocate is the shared progressive-filling body. All buffers must be
// sized exactly (rates/active to len(flows), remaining/activeOnLink to
// len(capacity)); their prior contents are ignored.
func allocate(capacity []float64, flows []Flow, rates, remaining []float64, active []bool, activeOnLink []int) {
	for i := range rates {
		rates[i] = 0
	}
	copy(remaining, capacity)
	for l := range activeOnLink {
		activeOnLink[l] = 0
	}
	nActive := 0
	for i, f := range flows {
		active[i] = false
		if f.Demand <= 0 {
			continue
		}
		active[i] = true
		nActive++
		for _, l := range f.Links {
			activeOnLink[l]++
		}
	}

	for nActive > 0 {
		// Largest uniform rate increment before a link saturates or a
		// flow's demand is met.
		inc := math.Inf(1)
		for l, n := range activeOnLink {
			if n > 0 {
				if d := remaining[l] / float64(n); d < inc {
					inc = d
				}
			}
		}
		for i, f := range flows {
			if active[i] && !math.IsInf(f.Demand, 1) {
				if d := f.Demand - rates[i]; d < inc {
					inc = d
				}
			}
		}
		if math.IsInf(inc, 1) {
			// Every active flow has infinite demand and no capacitated
			// links; their rate is unbounded.
			for i := range flows {
				if active[i] {
					rates[i] = math.Inf(1)
				}
			}
			break
		}
		if inc > 0 {
			for i := range flows {
				if active[i] {
					rates[i] += inc
				}
			}
			for l, n := range activeOnLink {
				if n > 0 {
					remaining[l] -= inc * float64(n)
				}
			}
		}

		// Freeze flows that hit their demand or sit on a saturated link.
		frozeAny := false
		for i, f := range flows {
			if !active[i] {
				continue
			}
			done := rates[i] >= f.Demand-eps
			if !done {
				for _, l := range f.Links {
					if remaining[l] <= eps*capacity[l]+eps {
						done = true
						break
					}
				}
			}
			if done {
				active[i] = false
				nActive--
				frozeAny = true
				for _, l := range f.Links {
					activeOnLink[l]--
				}
			}
		}
		if !frozeAny {
			// Defensive: numerical stall. Freeze the flow with the
			// tightest link to guarantee progress.
			for i := range flows {
				if active[i] {
					active[i] = false
					nActive--
					for _, l := range flows[i].Links {
						activeOnLink[l]--
					}
					break
				}
			}
		}
	}
}

// ShareOnLink returns the max-min fair share a new flow with unbounded
// demand would receive on a single link of the given capacity, where the
// existing flows on that link have the given demands (their current
// bandwidth shares, per §4.2). It equals water-filling capacity across
// existing demands plus one infinite demand.
func ShareOnLink(capacity float64, existing []float64) float64 {
	_, share := SharesWithNewFlow(capacity, existing, math.Inf(1))
	return share
}

// SharesWithNewFlow water-fills a single link of the given capacity across
// the existing flows (demand-capped at their current shares) plus one new
// flow with demand newDemand. It returns the new share of every existing
// flow (parallel to existing) and the share of the new flow.
//
// This is the per-link primitive behind both halves of the Flowserver's
// estimate: with newDemand = +Inf it yields the new flow's share on the
// link, and with newDemand = b_j (the path bottleneck share) it yields the
// updated shares of the existing flows.
func SharesWithNewFlow(capacity float64, existing []float64, newDemand float64) (newShares []float64, newFlowShare float64) {
	var a Alloc
	return a.SharesWithNewFlow(capacity, existing, newDemand)
}

// singleLink is the shared link set of every flow in the single-link
// estimators. Allocate only reads Flow.Links, so aliasing is safe.
var singleLink = []int{0}

// Alloc runs the same allocations as the package-level functions but keeps
// every scratch buffer between calls, so steady-state calls are
// allocation-free. The zero value is ready to use. Not safe for concurrent
// use; returned slices are scratch backed and valid until the next call.
type Alloc struct {
	flows        []Flow
	rates        []float64
	remaining    []float64
	active       []bool
	activeOnLink []int
	cap1         [1]float64
}

// Allocate is the scratch-reusing equivalent of the package-level Allocate.
// The returned slice is owned by the Alloc and overwritten by the next call.
func (a *Alloc) Allocate(capacity []float64, flows []Flow) []float64 {
	a.rates = sized(a.rates, len(flows))
	if len(flows) == 0 {
		return a.rates
	}
	a.remaining = sized(a.remaining, len(capacity))
	a.active = sized(a.active, len(flows))
	a.activeOnLink = sized(a.activeOnLink, len(capacity))
	allocate(capacity, flows, a.rates, a.remaining, a.active, a.activeOnLink)
	return a.rates
}

// SharesWithNewFlow is the scratch-reusing equivalent of the package-level
// SharesWithNewFlow. The newShares slice is owned by the Alloc and
// overwritten by the next call.
func (a *Alloc) SharesWithNewFlow(capacity float64, existing []float64, newDemand float64) (newShares []float64, newFlowShare float64) {
	a.flows = a.flows[:0]
	for _, d := range existing {
		a.flows = append(a.flows, Flow{Links: singleLink, Demand: d})
	}
	a.flows = append(a.flows, Flow{Links: singleLink, Demand: newDemand})
	a.cap1[0] = capacity
	rates := a.Allocate(a.cap1[:], a.flows)
	return rates[:len(existing)], rates[len(existing)]
}

// ShareOnLink is the scratch-reusing equivalent of the package-level
// ShareOnLink.
func (a *Alloc) ShareOnLink(capacity float64, existing []float64) float64 {
	_, share := a.SharesWithNewFlow(capacity, existing, math.Inf(1))
	return share
}

// sized returns s resized to n, reusing its backing array when possible.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
