package fabric

import (
	"math"

	"github.com/mayflower-dfs/mayflower/internal/maxmin"
)

// Table is the flow-table and arbiter plumbing shared by network
// backends built on maxmin: it tracks each admitted flow's link path in
// a dense, deterministic order (insertion order with swap-remove, like
// the simulator's active list) and recomputes every flow's max-min fair
// rate with reusable scratch, so reallocation allocates nothing in
// steady state. The emulator's arbiter is this table; the simulator
// keeps its own incremental component allocator (see DESIGN.md §8) but
// honours the identical sharing model, which is what cross-validation
// asserts.
//
// Table is not synchronized; owners serialize access (the emulator holds
// its network mutex).
type Table struct {
	capacity []float64
	ids      []uint64
	paths    [][]int
	pos      map[uint64]int
	rates    []float64

	scratch []maxmin.Flow
	alloc   maxmin.Alloc
}

// NewTable creates an empty table over the given per-link capacities
// (indexed by dense link id). The slice is copied.
func NewTable(capacity []float64) *Table {
	return &Table{
		capacity: append([]float64(nil), capacity...),
		pos:      make(map[uint64]int),
	}
}

// Len returns the number of admitted flows.
func (t *Table) Len() int { return len(t.ids) }

// NumLinks returns the number of links the table arbitrates over.
func (t *Table) NumLinks() int { return len(t.capacity) }

// Set admits a flow on a path of dense link indices, or replaces the
// path of an existing id. The links slice is retained; callers must not
// mutate it afterwards. Rates are stale until the next Reallocate.
func (t *Table) Set(id uint64, links []int) {
	if i, ok := t.pos[id]; ok {
		t.paths[i] = links
		return
	}
	t.pos[id] = len(t.ids)
	t.ids = append(t.ids, id)
	t.paths = append(t.paths, links)
	t.rates = append(t.rates, 0)
}

// Remove deletes a flow, reporting whether it was present. Rates are
// stale until the next Reallocate.
func (t *Table) Remove(id uint64) bool {
	i, ok := t.pos[id]
	if !ok {
		return false
	}
	last := len(t.ids) - 1
	t.ids[i] = t.ids[last]
	t.paths[i] = t.paths[last]
	t.rates[i] = t.rates[last]
	t.pos[t.ids[i]] = i
	t.ids = t.ids[:last]
	t.paths[last] = nil
	t.paths = t.paths[:last]
	t.rates = t.rates[:last]
	delete(t.pos, id)
	return true
}

// SetCapacity changes one link's capacity (bps >= 0). Rates are stale
// until the next Reallocate.
func (t *Table) SetCapacity(link int, bps float64) {
	t.capacity[link] = bps
}

// Capacity returns one link's current capacity.
func (t *Table) Capacity(link int) float64 { return t.capacity[link] }

// ValidLink reports whether a dense link index is within the table.
func (t *Table) ValidLink(link int) bool {
	return link >= 0 && link < len(t.capacity)
}

// Reallocate recomputes the max-min fair rate of every admitted flow
// (each demanding unbounded bandwidth — the steady-state behaviour of
// long TCP flows) by progressive filling over the current capacities.
// It is allocation-free in steady state.
func (t *Table) Reallocate() {
	flows := t.scratch[:0]
	for _, links := range t.paths {
		flows = append(flows, maxmin.Flow{Links: links, Demand: math.Inf(1)})
	}
	t.scratch = flows
	copy(t.rates, t.alloc.Allocate(t.capacity, flows))
}

// Each visits every admitted flow with its current rate, in the table's
// dense (deterministic) order. fn must not mutate the table.
func (t *Table) Each(fn func(id uint64, rate float64)) {
	for i, id := range t.ids {
		fn(id, t.rates[i])
	}
}
