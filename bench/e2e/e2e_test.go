package e2e

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

// benchmarkJSON mirrors the contract's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricJSON `json:"end_to_end"`
	PerLayer []metricJSON `json:"per_layer"`
}

type metricJSON struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesSpec keeps the committed contract file and the
// code's metric and workload tables one thing.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code has %d", len(b.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q/%q, code has %q/%q", i, b.Workloads[i].Name, b.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, contract allows 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metricJSON, want []Metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, code has %d", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, code has %+v", kind, i, g, m)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != m.Bound):
				t.Errorf("%s: bound differs from the code's %v", m.Name, m.Bound)
			case bounded && (m.Bound <= 0 || m.Bound > 0.25):
				t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", m.Name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, EndToEnd, true)
	check("per_layer", b.PerLayer, PerLayer, false)
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", b.Paths)
	}
}

func metricNames(spec []Metric) []string {
	names := make([]string, len(spec))
	for i, m := range spec {
		names[i] = m.Name
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs every workload once untraced and once traced on one
// seed with a short window: both complete with zero failures, each
// emits exactly its metric set, the two issue the identical operation
// sequence, and every sampled span tree nests and sums.
func TestSmoke(t *testing.T) {
	window := 3 * time.Second
	if testing.Short() {
		window = time.Second
	}
	for _, w := range Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			run := func(trace bool) *Result {
				res, err := Run(Options{Workload: w.Name, Seed: 7, Window: window, Trace: trace, WorkDir: t.TempDir()})
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
				}
				return res
			}
			plain, traced := run(false), run(true)

			if got, want := sortedNames(plain.Metrics), metricNames(EndToEnd); !reflect.DeepEqual(got, want) {
				t.Errorf("untraced run reported %v, want %v", got, want)
			}
			if got, want := sortedNames(traced.Metrics), metricNames(PerLayer); !reflect.DeepEqual(got, want) {
				t.Errorf("traced run reported %v, want %v", got, want)
			}
			for name, v := range plain.Metrics {
				if !(v.Value > 0) || math.IsInf(v.Value, 0) {
					t.Errorf("end-to-end metric %s = %v, want a positive number", name, v.Value)
				}
			}

			// One seed, one op sequence: the faster run merely gets further.
			n := min(len(plain.OpLog), len(traced.OpLog))
			if n < 3 {
				t.Fatalf("only %d common ops to compare", n)
			}
			if a, b := plain.OpLogHash(n), traced.OpLogHash(n); a != b {
				t.Errorf("first %d ops differ between two runs of seed 7: %s vs %s", n, a, b)
			}

			if traced.Trace == nil || len(traced.Trace.Sample) == 0 {
				t.Fatal("traced run recorded no span trees")
			}
			for _, root := range traced.Trace.Sample {
				checkTree(t, root)
			}
			if w.SingleDriver {
				// Control round trips are attributable: the tree is three
				// levels deep and names the layers behind them.
				if _, ok := traced.Trace.Spans["flowserver.rpc"]; !ok {
					t.Errorf("no flowserver.rpc spans; have %v", sortedNames(traced.Trace.Spans))
				}
			}
		})
	}
}

// checkTree asserts the tracing invariants: children lie inside their
// parent, in order, without overlap, and self times add up to the root's
// duration.
func checkTree(t *testing.T, root *Span) {
	t.Helper()
	const eps = 1e-6
	selfSum := 0.0
	root.Walk(func(s *Span) {
		selfSum += s.SelfUs
		if s.SelfUs < -eps || s.EndUs < s.StartUs {
			t.Errorf("span %s [%v,%v] self %v", s.Name, s.StartUs, s.EndUs, s.SelfUs)
		}
		at := s.StartUs
		for _, c := range s.Children {
			if c.StartUs < at-eps || c.EndUs > s.EndUs+eps {
				t.Errorf("child %s [%v,%v] escapes or overlaps inside %s [%v,%v] (previous sibling ended %v)",
					c.Name, c.StartUs, c.EndUs, s.Name, s.StartUs, s.EndUs, at)
			}
			at = c.EndUs
		}
	})
	if math.Abs(selfSum-root.DurUs()) > 1e-3 {
		t.Errorf("self times of %s sum to %v µs, op took %v µs", root.Name, selfSum, root.DurUs())
	}
}

// TestTraceTree builds trees from hand-written records: control round
// trips are cut where a write follows a read, land under the phase they
// fall in, and the payload-carrying round trip becomes an append's bulk
// span.
func TestTraceTree(t *testing.T) {
	tr := newTracer()
	tr.layerOf["ns"] = "nameserver"
	tr.layerOf["fs"] = "flowserver"
	tr.layerOf["ds"] = "dataserver"
	at := func(us int) time.Duration { return time.Duration(us) * time.Microsecond }

	read := &opTrace{
		start: at(100), end: at(400),
		dialStart: at(160), dialEnd: at(200), firstByte: at(240), close: at(300), dataBytes: 4105,
		ctl: []ctlEvent{
			{at(110), "fs", true, 4}, {at(111), "fs", true, 160}, {at(150), "fs", false, 4}, {at(151), "fs", false, 90},
			{at(320), "fs", true, 80}, {at(380), "fs", false, 30},
		},
	}
	root := tr.tree(read, "read_4k", 0)
	checkTree(t, root)
	var names []string
	root.Walk(func(s *Span) { names = append(names, s.Name) })
	want := []string{"read_4k", "client.pre_data", "flowserver.rpc", "dataserver.connect", "dataserver.ttfb", "dataserver.transfer", "client.post_data", "flowserver.rpc"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("read tree = %v, want %v", names, want)
	}
	if pre := root.Children[0]; pre.DurUs() != 60 || pre.SelfUs != 60-41 {
		t.Errorf("pre_data: dur %v self %v, want 60 and 19", pre.DurUs(), pre.SelfUs)
	}

	app := &opTrace{
		start: at(0), end: at(30000),
		ctl: []ctlEvent{
			{at(10), "fs", true, 150}, {at(60), "fs", false, 90},
			{at(100), "ds", true, 4}, {at(101), "ds", true, 350000}, {at(29000), "ds", false, 40},
			{at(29100), "fs", true, 80}, {at(29900), "fs", false, 30},
		},
	}
	root = tr.tree(app, "append_256k", 0)
	checkTree(t, root)
	names = nil
	root.Walk(func(s *Span) { names = append(names, s.Name) })
	want = []string{"append_256k", "client.pre_data", "flowserver.rpc", "dataserver.append", "client.post_data", "flowserver.rpc"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("append tree = %v, want %v", names, want)
	}
}

// TestSpreadMatchesPython pins Spread to statistics.quantiles(xs, n=4):
// for 1..10 the quartiles are 2.75, 5.5, 8.25.
func TestSpreadMatchesPython(t *testing.T) {
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if got := Spread(xs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("Spread(1..10) = %v, want 1", got)
	}
	if got := Spread([]float64{2, 2, 2, 2}); got != 0 {
		t.Errorf("Spread of a constant = %v", got)
	}
}

// TestPatternIsPositional: content is a function of (key, offset), so a
// range generated on its own equals the same range cut from the whole.
func TestPatternIsPositional(t *testing.T) {
	whole := make([]byte, 1000)
	fillPattern(whole, 42, 0)
	for _, r := range [][2]int{{0, 8}, {3, 17}, {5, 6}, {250, 777}, {999, 1000}} {
		part := make([]byte, r[1]-r[0])
		fillPattern(part, 42, int64(r[0]))
		if !reflect.DeepEqual(part, whole[r[0]:r[1]]) {
			t.Errorf("range %v differs from the whole", r)
		}
	}
	other := make([]byte, 1000)
	fillPattern(other, 43, 0)
	if reflect.DeepEqual(other, whole) {
		t.Error("two keys gave one content")
	}
}
