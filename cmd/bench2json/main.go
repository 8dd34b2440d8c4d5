// Command bench2json converts `go test -bench` text output into a stable
// JSON document. The Makefile's bench target pipes the selection and churn
// benchmarks through it to produce BENCH_selection.json, the committed
// performance baseline for the incremental allocator hot path.
//
// It also gates CI on that baseline: with -compare, instead of emitting
// JSON it diffs the parsed results against a committed baseline and
// exits nonzero when any baseline benchmark is missing, slows down by
// more than -max-regress, or allocates more per op than allocSlack
// allows.
//
// Usage:
//
//	go test -bench . -benchmem ./... | bench2json > bench.json
//	go test -bench . -benchmem ./... | bench2json -compare BENCH_selection.json -max-regress 0.20
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped,
	// e.g. "BenchmarkNetsimChurn/10k".
	Name    string  `json:"name"`
	Package string  `json:"package,omitempty"`
	Iters   int64   `json:"iterations"`
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are present when -benchmem was set.
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

// Report is the top-level JSON document.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	var (
		compareFile = flag.String("compare", "", "baseline JSON to diff against instead of emitting JSON; exit 1 on regression")
		maxRegress  = flag.Float64("max-regress", 0.20, "with -compare: allowed fractional ns/op slowdown per benchmark")
	)
	flag.Parse()

	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}

	if *compareFile != "" {
		base, err := loadReport(*compareFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench2json:", err)
			os.Exit(1)
		}
		if err := compare(os.Stdout, base, rep, *maxRegress); err != nil {
			fmt.Fprintln(os.Stderr, "bench2json:", err)
			os.Exit(1)
		}
		return
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
}

// loadReport reads a baseline JSON document written by this tool.
func loadReport(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rep Report
	if err := json.NewDecoder(f).Decode(&rep); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks in baseline", path)
	}
	return &rep, nil
}

// allocSlack is how far allocs/op may rise above the baseline before the
// gate fails: one allocation, or 0.5% of the baseline if that is more.
// allocs/op is an average over b.N that includes one-time warm-up
// allocations, so an unmodified tree moves by that much between runs
// (a 56k-allocation figure sweep by ±5, a 256-allocation append by 1).
func allocSlack(base float64) float64 {
	return max(1, 0.005*base)
}

// compare diffs cur against every baseline benchmark, printing one line
// per comparison, and returns an error if any baseline benchmark is
// missing from cur, slowed down by more than maxRegress, or allocates
// more per op than the baseline plus allocSlack. Benchmarks present only in cur are
// noted but never fail the gate (the baseline defines the contract).
// Iteration counts and absolute machine speed vary between hosts, so
// the gate is relative: cur ns/op vs baseline ns/op on the same run's
// machine is only meaningful when both sides ran on comparable hardware
// — which is why CI regenerates the current side in the same job.
func compare(w io.Writer, base, cur *Report, maxRegress float64) error {
	byName := make(map[string]Benchmark, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		byName[b.Name] = b
	}
	fmt.Fprintf(w, "%-28s %14s %14s %8s  %s\n", "benchmark", "base ns/op", "cur ns/op", "delta", "verdict")
	var failures []string
	for _, b := range base.Benchmarks {
		c, ok := byName[b.Name]
		if !ok {
			fmt.Fprintf(w, "%-28s %14.0f %14s %8s  MISSING\n", b.Name, b.NsPerOp, "-", "-")
			failures = append(failures, fmt.Sprintf("%s: missing from current run", b.Name))
			continue
		}
		delete(byName, b.Name)
		delta := c.NsPerOp/b.NsPerOp - 1
		verdict := "ok"
		if delta > maxRegress {
			verdict = "REGRESS"
			failures = append(failures, fmt.Sprintf("%s: %.0f ns/op vs %.0f baseline (%+.1f%% > %+.1f%% allowed)",
				b.Name, c.NsPerOp, b.NsPerOp, delta*100, maxRegress*100))
		}
		if b.AllocsPerOp != nil && c.AllocsPerOp != nil && *c.AllocsPerOp > *b.AllocsPerOp+allocSlack(*b.AllocsPerOp) {
			verdict = "REGRESS"
			failures = append(failures, fmt.Sprintf("%s: %.0f allocs/op vs %.0f baseline (more than %.0f over)",
				b.Name, *c.AllocsPerOp, *b.AllocsPerOp, allocSlack(*b.AllocsPerOp)))
		}
		fmt.Fprintf(w, "%-28s %14.0f %14.0f %+7.1f%%  %s\n", b.Name, b.NsPerOp, c.NsPerOp, delta*100, verdict)
	}
	for name := range byName {
		fmt.Fprintf(w, "%-28s %14s %14.0f %8s  new\n", name, "-", byName[name].NsPerOp, "-")
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d regression(s):\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	return nil
}

// parse reads `go test -bench` output and collects every benchmark result
// line, tagging each with the package it ran in.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{Benchmarks: []Benchmark{}}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseLine(line)
			if !ok {
				continue
			}
			b.Package = pkg
			rep.Benchmarks = append(rep.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found")
	}
	return rep, nil
}

// parseLine parses one result line of the form
//
//	BenchmarkName/sub-8  20  374168232 ns/op  1052857 B/op  18 allocs/op
//
// Reporting lines ("--- BENCH: ...") and malformed lines return ok=false.
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	name := fields[0]
	// Strip the -GOMAXPROCS suffix so names are machine-independent.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Iters: iters}
	seenNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			b.NsPerOp = v
			seenNs = true
		case "B/op":
			val := v
			b.BytesPerOp = &val
		case "allocs/op":
			val := v
			b.AllocsPerOp = &val
		}
	}
	return b, seenNs
}
