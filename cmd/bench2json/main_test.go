package main

import (
	"fmt"
	"os"
	"path/filepath"
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

// TestABPairsRunsInOrder: against a raw baseline file (make bench-ab), a
// row prints both medians and ranges and counts the pairs the current
// side won, run i against run i.
func TestABPairsRunsInOrder(t *testing.T) {
	raw := func(ns []int, allocs int) string {
		in := "pkg: example.com/p\n"
		for _, n := range ns {
			in += fmt.Sprintf("BenchmarkSelect/1k-8 100 %d ns/op 64 B/op %d allocs/op\n", n, allocs)
		}
		return in
	}
	path := filepath.Join(t.TempDir(), "ref.txt")
	if err := os.WriteFile(path, []byte(raw([]int{1000, 900, 1100, 1000, 950}, 4)), 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := loadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := parse(strings.NewReader(raw([]int{950, 950, 1000, 990, 900}, 3)))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := compare(&out, base, cur, 0.20); err != nil {
		t.Fatalf("compare: %v\n%s", err, out.String())
	}
	for _, want := range []string{"1000", "950", "-5.0%", "900–1100", "900–1000", "4/5"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("A/B row lacks %q:\n%s", want, out.String())
		}
	}
}

// TestRepeatedRunsCompareByMedian: with -count 5 a benchmark is one row,
// the median of its runs beside their ns/op range, so one stalled run
// neither fails the gate nor moves the baseline.
func TestRepeatedRunsCompareByMedian(t *testing.T) {
	in := "pkg: example.com/p\nBenchmarkNetsimChurn/1k-8 10 2000 ns/op 7 allocs/op\n"
	for i, ns := range []int{1000, 1010, 5000, 990, 1020} {
		in += fmt.Sprintf("BenchmarkSelect/1k-8 100 %d ns/op 64 B/op %d allocs/op\n", ns, []int{3, 3, 9, 3, 4}[i])
	}
	rep, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d rows, want one per benchmark: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	b := rep.Benchmarks[1]
	if b.Runs != 5 || b.NsPerOp != 1010 || b.NsMin != 990 || b.NsMax != 5000 || *b.AllocsPerOp != 3 {
		t.Errorf("row = %+v (allocs %v): want 5 runs, median 1010 ns and 3 allocs, range 990–5000", b, *b.AllocsPerOp)
	}
	var out strings.Builder
	if err := compare(&out, baselineReport(), rep, 0.20); err != nil {
		t.Fatalf("a stalled run among five failed the gate: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "990–5000") {
		t.Errorf("compare does not print the row's range:\n%s", out.String())
	}
}
