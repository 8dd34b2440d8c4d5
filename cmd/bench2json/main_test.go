package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: github.com/mayflower-dfs/mayflower/internal/netsim
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkNetsimChurn/1k-8         	    1000	   1629307 ns/op	  150098 B/op	      18 allocs/op
BenchmarkNetsimChurn/10k-8        	      20	 374168232 ns/op	 1052857 B/op	      18 allocs/op
--- BENCH: BenchmarkNetsimChurn/10k
    bench_test.go:63: rng seed: 42
PASS
ok  	github.com/mayflower-dfs/mayflower/internal/netsim	925.211s
pkg: github.com/mayflower-dfs/mayflower/internal/flowserver
BenchmarkSelect/1k-8              	     100	   1457535 ns/op
PASS
`

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" {
		t.Errorf("goos/goarch = %q/%q", rep.Goos, rep.Goarch)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(rep.Benchmarks))
	}

	b := rep.Benchmarks[1]
	if b.Name != "BenchmarkNetsimChurn/10k" {
		t.Errorf("name = %q (GOMAXPROCS suffix must be stripped)", b.Name)
	}
	if b.Package != "github.com/mayflower-dfs/mayflower/internal/netsim" {
		t.Errorf("package = %q", b.Package)
	}
	if b.Iters != 20 || b.NsPerOp != 374168232 {
		t.Errorf("iters/ns = %d/%g", b.Iters, b.NsPerOp)
	}
	if b.BytesPerOp == nil || *b.BytesPerOp != 1052857 {
		t.Errorf("bytes_per_op = %v", b.BytesPerOp)
	}
	if b.AllocsPerOp == nil || *b.AllocsPerOp != 18 {
		t.Errorf("allocs_per_op = %v", b.AllocsPerOp)
	}

	sel := rep.Benchmarks[2]
	if sel.Package != "github.com/mayflower-dfs/mayflower/internal/flowserver" {
		t.Errorf("package not updated across pkg lines: %q", sel.Package)
	}
	if sel.BytesPerOp != nil || sel.AllocsPerOp != nil {
		t.Error("memory stats invented for a line without -benchmem")
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\nok\n")); err == nil {
		t.Error("no error for input without benchmark lines")
	}
}

func fp(v float64) *float64 { return &v }

func baselineReport() *Report {
	return &Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkSelect/1k", NsPerOp: 1000, AllocsPerOp: fp(3)},
		{Name: "BenchmarkNetsimChurn/1k", NsPerOp: 2000, AllocsPerOp: fp(7)},
	}}
}

func TestCompareWithinBudgetPasses(t *testing.T) {
	cur := &Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkSelect/1k", NsPerOp: 1150, AllocsPerOp: fp(3)},
		{Name: "BenchmarkNetsimChurn/1k", NsPerOp: 1800, AllocsPerOp: fp(7)},
		{Name: "BenchmarkNew/extra", NsPerOp: 50},
	}}
	var out strings.Builder
	if err := compare(&out, baselineReport(), cur, 0.20); err != nil {
		t.Fatalf("compare failed within budget: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "new") {
		t.Errorf("extra benchmark not reported as new:\n%s", out.String())
	}
}

func TestCompareFailsOnSlowdown(t *testing.T) {
	cur := &Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkSelect/1k", NsPerOp: 1300, AllocsPerOp: fp(3)},
		{Name: "BenchmarkNetsimChurn/1k", NsPerOp: 2000, AllocsPerOp: fp(7)},
	}}
	var out strings.Builder
	err := compare(&out, baselineReport(), cur, 0.20)
	if err == nil {
		t.Fatalf("compare passed a 30%% slowdown:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "BenchmarkSelect/1k") {
		t.Errorf("error does not name the regressed benchmark: %v", err)
	}
}

// TestCompareAllocGate: allocs/op may sit one allocation, or 0.5% of a
// large baseline, above it (run-to-run noise of an unmodified tree) and
// no further.
func TestCompareAllocGate(t *testing.T) {
	base := &Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkSelect/1k", NsPerOp: 1000, AllocsPerOp: fp(3)},
		{Name: "BenchmarkSweepFigure6b", NsPerOp: 1000, AllocsPerOp: fp(56218)},
	}}
	for _, tc := range []struct {
		small, large float64
		pass         bool
	}{
		{3, 56218, true},
		{4, 56223, true},  // the noise PR 15 recorded on an unmodified tree
		{4, 56499, true},  // 0.5% of 56,218 is 281
		{5, 56218, false}, // two more on a three-allocation path is a change
		{3, 56500, false},
	} {
		cur := &Report{Benchmarks: []Benchmark{
			{Name: "BenchmarkSelect/1k", NsPerOp: 1000, AllocsPerOp: fp(tc.small)},
			{Name: "BenchmarkSweepFigure6b", NsPerOp: 1000, AllocsPerOp: fp(tc.large)},
		}}
		var out strings.Builder
		if err := compare(&out, base, cur, 0.20); (err == nil) != tc.pass {
			t.Errorf("allocs %v and %v: err = %v, want pass = %v\n%s", tc.small, tc.large, err, tc.pass, out.String())
		}
	}
}

func TestCompareFailsOnMissingBenchmark(t *testing.T) {
	cur := &Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkSelect/1k", NsPerOp: 1000, AllocsPerOp: fp(3)},
	}}
	var out strings.Builder
	err := compare(&out, baselineReport(), cur, 0.20)
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("missing baseline benchmark not flagged: %v\n%s", err, out.String())
	}
}
