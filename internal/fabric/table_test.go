package fabric_test

import (
	"math"
	"testing"

	"github.com/mayflower-dfs/mayflower/internal/fabric"
	"github.com/mayflower-dfs/mayflower/internal/maxmin"
)

// tableModel is the test's own account of what a Table holds: every
// flow's path, the capacities, the rates the last Reallocate produced,
// and the seeds recorded since.
type tableModel struct {
	caps      []float64
	paths     map[uint64][]int
	rates     map[uint64]float64
	seedFlows map[uint64]bool
	seedLinks map[int]bool
}

func (m *tableModel) unlink(id uint64) {
	for _, l := range m.paths[id] {
		m.seedLinks[l] = true
	}
}

// reached returns the flows the seeds reach: the seeded flows still
// present, and every flow transitively sharing a link with one of them
// or with a seeded link.
func (m *tableModel) reached() map[uint64]bool {
	got := make(map[uint64]bool)
	links := make(map[int]bool)
	var queue []int
	enqueue := func(l int) {
		if !links[l] {
			links[l] = true
			queue = append(queue, l)
		}
	}
	for id := range m.seedFlows {
		if p, ok := m.paths[id]; ok {
			got[id] = true
			for _, l := range p {
				enqueue(l)
			}
		}
	}
	for l := range m.seedLinks {
		enqueue(l)
	}
	for len(queue) > 0 {
		l := queue[0]
		queue = queue[1:]
		for id, p := range m.paths {
			for _, pl := range p {
				if pl == l && !got[id] {
					got[id] = true
					for _, ql := range p {
						enqueue(ql)
					}
				}
			}
		}
	}
	return got
}

// closeRates reports whether the table's rate matches the global fill's
// to within a few ulps of the largest capacity: the two fills associate
// the same additions differently, so the rounding error of a share left
// over after larger ones froze is an ulp of those larger values, not of
// the share.
func closeRates(got, want, maxCap float64) bool {
	if got == want {
		return true
	}
	if math.IsInf(got, 0) || math.IsInf(want, 0) {
		return false
	}
	return math.Abs(got-want) <= 8*0x1p-52*math.Max(maxCap, math.Max(math.Abs(got), math.Abs(want)))
}

// reallocateAndCheck runs Reallocate and holds every rate to the global
// fill, every flow outside the seeded components to its previous rate
// bit for bit, and the recomputed count to the seeded components' size.
func reallocateAndCheck(t *testing.T, tab *fabric.Table, m *tableModel) {
	t.Helper()
	recomputed := tab.Reallocate()
	var ids []uint64
	var got []float64
	var flows []maxmin.Flow
	tab.Each(func(id uint64, rate float64) {
		ids = append(ids, id)
		got = append(got, rate)
		flows = append(flows, maxmin.Flow{Links: m.paths[id], Demand: math.Inf(1)})
	})
	if len(ids) != len(m.paths) {
		t.Fatalf("table holds %d flows, want %d", len(ids), len(m.paths))
	}
	maxCap := 0.0
	for _, c := range m.caps {
		maxCap = math.Max(maxCap, c)
	}
	want := maxmin.Allocate(m.caps, flows)
	reached := m.reached()
	for i, id := range ids {
		if _, ok := m.paths[id]; !ok {
			t.Fatalf("table holds removed flow %d", id)
		}
		if !closeRates(got[i], want[i], maxCap) {
			t.Errorf("flow %d on %v: rate %v, global fill %v (caps %v)", id, m.paths[id], got[i], want[i], m.caps)
		}
		if prev, ok := m.rates[id]; ok && !reached[id] && math.Float64bits(prev) != math.Float64bits(got[i]) {
			t.Errorf("flow %d outside the seeded components moved: %v → %v", id, prev, got[i])
		}
	}
	if recomputed != len(reached) {
		t.Errorf("Reallocate recomputed %d flows, the seeded components hold %d", recomputed, len(reached))
	}
	m.rates = make(map[uint64]float64, len(ids))
	for i, id := range ids {
		m.rates[id] = got[i]
	}
	m.seedFlows = make(map[uint64]bool)
	m.seedLinks = make(map[int]bool)
}

// FuzzTableReallocate drives a Table through Set (new flows and path
// replacements, empty paths included), Remove, SetCapacity (zero
// included) and Reallocate, decoded from the fuzz payload, and checks
// each Reallocate against maxmin.Allocate. Capacities come from a small
// set of values, so equal saturation levels (ties) are common.
func FuzzTableReallocate(f *testing.F) {
	f.Add([]byte{2, 1, 1, 0x00, 1, 0, 0x04, 2, 0, 1, 0x03})
	f.Add([]byte{3, 4, 4, 4, 0x08, 1, 0, 1, 0x08, 2, 1, 2, 0x03, 0x02, 1, 0, 0x03, 0x01, 1, 0x03})
	f.Add([]byte{4, 2, 3, 0, 5, 0x0c, 1, 0, 1, 2, 0x00, 2, 0x04, 3, 3, 0x03, 0x04, 1, 3, 0x03, 0x02, 2, 6, 0x01, 3, 0x03})
	f.Add([]byte{5, 7, 7, 7, 7, 7, 0x08, 1, 0, 1, 0x08, 2, 2, 3, 0x08, 3, 1, 2, 0x04, 4, 4, 0x03, 0x02, 4, 0, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		caps := make([]float64, 1+next()%8)
		for i := range caps {
			caps[i] = float64(next()%8) * 1e6
		}
		m := &tableModel{
			caps:      append([]float64(nil), caps...),
			paths:     make(map[uint64][]int),
			seedFlows: make(map[uint64]bool),
			seedLinks: make(map[int]bool),
		}
		tab := fabric.NewTable(caps)
		for len(data) > 0 {
			op := next()
			switch op % 4 {
			case 0: // Set: up to three distinct links, none for an empty path
				id := uint64(1 + next()%12)
				var links []int
				for n := int(op/4) % 4; n > 0; n-- {
					l := int(next()) % len(caps)
					dup := false
					for _, have := range links {
						dup = dup || have == l
					}
					if !dup {
						links = append(links, l)
					}
				}
				m.unlink(id)
				m.paths[id] = links
				m.seedFlows[id] = true
				tab.Set(id, links)
			case 1:
				id := uint64(1 + next()%12)
				_, present := m.paths[id]
				m.unlink(id)
				delete(m.paths, id)
				if tab.Remove(id) != present {
					t.Fatalf("Remove(%d) = %v, want %v", id, !present, present)
				}
			case 2:
				l := int(next()) % len(caps)
				bps := float64(next()%8) * 1e6
				m.caps[l] = bps
				m.seedLinks[l] = true
				tab.SetCapacity(l, bps)
			case 3:
				reallocateAndCheck(t, tab, m)
			}
		}
		reallocateAndCheck(t, tab, m)
	})
}

// TestTableReallocateAllocatesNothing: once its buffers have grown, a
// Remove/Set/SetCapacity/Reallocate cycle allocates nothing.
func TestTableReallocateAllocatesNothing(t *testing.T) {
	tab := fabric.NewTable([]float64{8e6, 4e6, 4e6, 2e6, 8e6})
	paths := [][]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}, {4}, {}}
	for i, p := range paths {
		tab.Set(uint64(i+1), p)
	}
	tab.Reallocate()
	bps := 3e6
	churn := func() {
		tab.Remove(1)
		tab.Set(1, paths[0])
		bps = 7e6 - bps
		tab.SetCapacity(2, bps)
		tab.Reallocate()
	}
	churn()
	if n := testing.AllocsPerRun(100, churn); n != 0 {
		t.Errorf("steady-state churn and Reallocate allocate %v times per run, want 0", n)
	}
}
