package fabric

import (
	"math"
	"slices"
)

// Table is the max-min fair arbiter both substrates take their rates
// from: the simulator (netsim) and the emulator (emunet) each hold one,
// so they share one sharing model by construction. Every admitted flow
// demands unbounded bandwidth (the steady-state behaviour of long TCP
// flows) along a path of dense link indices.
//
// Reallocation is incremental. Set, Remove and SetCapacity record seeds,
// and Reallocate recomputes rates only for the connected component of
// links and flows transitively sharing a link with a seed; every flow
// outside it keeps its rate bit for bit (DESIGN.md §8). Within the
// component, progressive filling runs on a lazy min-heap of link
// saturation levels, so a reallocation costs O(flows·pathlen·log links)
// over the component. All scratch is reused: Reallocate allocates
// nothing in steady state.
//
// Flows live in rows: dense insertion order with swap-remove, the order
// Each visits. A caller that keeps its own dense list in step (append on
// Set of a new id, swap-remove on Remove) shares row numbers with the
// table and can read rates by row (netsim's active list does).
//
// Table is not synchronized; owners serialize access (the emulator holds
// its network mutex).
type Table struct {
	capacity []float64
	rows     []flowRow
	pos      map[uint64]int // flow id → row

	// linkFlows[l] lists the rows crossing link l.
	linkFlows [][]int

	// Seeds for the next Reallocate: flows admitted or re-pathed since
	// the last one, and links whose flow set or capacity changed.
	seedFlows []uint64
	seedLinks []int

	// Scratch reused across reallocations (indexed by link where
	// applicable); epoch stamps avoid clearing the marks between them.
	epoch     int64
	linkMark  []int64
	rem       []float64
	nOn       []int
	compLinks []int
	compFlows []int
	satHeap   []satEntry
}

type flowRow struct {
	id    uint64
	links []int
	rate  float64
	mark  int64 // visited epoch, for component collection
}

// NewTable creates an empty table over the given per-link capacities
// (indexed by dense link id). The slice is copied.
func NewTable(capacity []float64) *Table {
	n := len(capacity)
	return &Table{
		capacity:  append([]float64(nil), capacity...),
		pos:       make(map[uint64]int),
		linkFlows: make([][]int, n),
		linkMark:  make([]int64, n),
		rem:       make([]float64, n),
		nOn:       make([]int, n),
	}
}

// Set admits a flow on a path of dense link indices, or replaces the
// path of an existing id (which keeps its row). The links slice is
// retained; callers must not mutate it afterwards. Rates are stale until
// the next Reallocate.
func (t *Table) Set(id uint64, links []int) {
	i, ok := t.pos[id]
	if ok {
		t.unlink(i)
	} else {
		i = len(t.rows)
		t.pos[id] = i
		t.rows = append(t.rows, flowRow{id: id})
	}
	t.rows[i].links = links
	for _, l := range links {
		t.linkFlows[l] = append(t.linkFlows[l], i)
	}
	t.seedFlows = append(t.seedFlows, id)
}

// unlink swap-removes row i from the index of every link on its path and
// seeds those links. Finding the entry scans the link's list, which the
// Reallocate these seeds lead to walks in full anyway.
func (t *Table) unlink(i int) {
	for _, l := range t.rows[i].links {
		entries := t.linkFlows[l]
		last := len(entries) - 1
		entries[slices.Index(entries, i)] = entries[last]
		t.linkFlows[l] = entries[:last]
		t.seedLinks = append(t.seedLinks, l)
	}
}

// Remove deletes a flow, reporting whether it was present. The last row
// moves into its place. Rates are stale until the next Reallocate.
func (t *Table) Remove(id uint64) bool {
	i, ok := t.pos[id]
	if !ok {
		return false
	}
	t.unlink(i)
	delete(t.pos, id)
	last := len(t.rows) - 1
	if i != last {
		t.rows[i] = t.rows[last]
		t.pos[t.rows[i].id] = i
		for _, l := range t.rows[i].links {
			entries := t.linkFlows[l]
			entries[slices.Index(entries, last)] = i
		}
	}
	t.rows[last] = flowRow{}
	t.rows = t.rows[:last]
	return true
}

// SetCapacity changes one link's capacity (bps >= 0). Rates are stale
// until the next Reallocate.
func (t *Table) SetCapacity(link int, bps float64) {
	t.capacity[link] = bps
	t.seedLinks = append(t.seedLinks, link)
}

// ValidLink reports whether a dense link index is within the table.
func (t *Table) ValidLink(link int) bool {
	return link >= 0 && link < len(t.capacity)
}

// Rate returns the current rate of the flow in the given row.
func (t *Table) Rate(row int) float64 { return t.rows[row].rate }

// LinkRate returns the aggregate current rate of the flows crossing a
// link.
func (t *Table) LinkRate(link int) float64 {
	var total float64
	for _, i := range t.linkFlows[link] {
		total += t.rows[i].rate
	}
	return total
}

// Each visits every admitted flow with its current rate, in row order.
// fn must not mutate the table.
func (t *Table) Each(fn func(id uint64, rate float64)) {
	for i := range t.rows {
		fn(t.rows[i].id, t.rows[i].rate)
	}
}

// Reallocate recomputes the max-min fair rates of the component the
// seeds since the last call reach, and returns how many flows it
// recomputed.
//
// Correctness: a flow keeps its rate unless it transitively shares a
// link with a changed flow or link. Collection is conservative — it
// walks every link of every reached flow, saturated or not — so the
// recomputed set is a union of whole max-min components and progressive
// filling inside it assigns what a global fill would.
func (t *Table) Reallocate() int {
	t.epoch++
	epoch := t.epoch

	// Collect the component: BFS over links, where visiting a link
	// visits every flow on it and visiting a flow enqueues all its
	// links. nOn ends up as the total flow count per component link.
	t.compLinks = t.compLinks[:0]
	t.compFlows = t.compFlows[:0]
	for _, id := range t.seedFlows {
		if i, ok := t.pos[id]; ok && t.rows[i].mark != epoch {
			t.visit(i, epoch)
		}
	}
	for _, l := range t.seedLinks {
		t.markLink(l, epoch)
	}
	t.seedFlows = t.seedFlows[:0]
	t.seedLinks = t.seedLinks[:0]
	for qi := 0; qi < len(t.compLinks); qi++ {
		for _, i := range t.linkFlows[t.compLinks[qi]] {
			if t.rows[i].mark != epoch {
				t.visit(i, epoch)
			}
		}
	}

	// Progressive filling over the component via link saturation
	// levels: all unfrozen rates rise uniformly, and link l saturates
	// when the level reaches rem[l]/nOn[l]. Freezing a flow at level λ
	// removes λ of load and one active flow from each of its links,
	// which can only raise their saturation levels — so a lazy min-heap
	// of levels pops links in saturation order, re-queueing entries
	// whose key went stale. rate < 0 marks a flow not yet frozen.
	h := t.satHeap[:0]
	for _, l := range t.compLinks {
		if n := t.nOn[l]; n > 0 {
			h = satPush(h, satEntry{level: t.rem[l] / float64(n), link: l})
		}
	}
	for _, i := range t.compFlows {
		t.rows[i].rate = -1
	}
	level := 0.0
	for len(h) > 0 {
		e := h[0]
		h = satPop(h)
		n := t.nOn[e.link]
		if n == 0 {
			continue
		}
		cur := t.rem[e.link] / float64(n)
		if cur != e.level {
			// Flows froze on this link since the entry was pushed;
			// its saturation level rose. Re-queue at the current key.
			h = satPush(h, satEntry{level: cur, link: e.link})
			continue
		}
		if cur > level {
			level = cur
		}
		// Link saturates: freeze every unfrozen flow crossing it at the
		// current fill level.
		for _, i := range t.linkFlows[e.link] {
			r := &t.rows[i]
			if r.rate >= 0 {
				continue
			}
			r.rate = level
			for _, m := range r.links {
				t.nOn[m]--
				t.rem[m] -= level
			}
		}
	}
	t.satHeap = h
	for _, i := range t.compFlows {
		if t.rows[i].rate < 0 {
			// No capacitated link constrains this flow.
			t.rows[i].rate = math.Inf(1)
		}
	}
	return len(t.compFlows)
}

// visit adds row i to the component and counts it on each of its links,
// enqueueing the links not yet reached.
func (t *Table) visit(i int, epoch int64) {
	r := &t.rows[i]
	r.mark = epoch
	t.compFlows = append(t.compFlows, i)
	for _, l := range r.links {
		t.markLink(l, epoch)
		t.nOn[l]++
	}
}

// markLink enqueues link l with its full capacity and no flows counted,
// unless this epoch already reached it.
func (t *Table) markLink(l int, epoch int64) {
	if t.linkMark[l] != epoch {
		t.linkMark[l] = epoch
		t.rem[l] = t.capacity[l]
		t.nOn[l] = 0
		t.compLinks = append(t.compLinks, l)
	}
}

// satEntry is a lazy min-heap entry: link saturates when the uniform
// fill level reaches level. Entries go stale when flows freeze on the
// link; a stale pop is detected by recomputing the level and re-queued.
type satEntry struct {
	level float64
	link  int
}

func satLess(a, b satEntry) bool {
	if a.level != b.level {
		return a.level < b.level
	}
	return a.link < b.link
}

func satPush(h []satEntry, e satEntry) []satEntry {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !satLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

// satPop removes the minimum entry (h[0]); callers read it first.
func satPop(h []satEntry) []satEntry {
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && satLess(h[l], h[m]) {
			m = l
		}
		if r < n && satLess(h[r], h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return h
}
