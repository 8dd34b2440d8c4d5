// Command e2ebench runs the end-to-end benchmark of the live testbed
// (package e2e). One invocation is one run of one workload:
//
//	e2ebench --workload read_small_ctl --seed 1 --seconds 20 --trace 0
//
// prints every metric by name with its unit and, as the last line of
// standard output, the result object the benchmark contract asks for.
// --trace 1 reports the per-layer metrics instead of the end-to-end ones
// and writes the span trees to <out>/trace-<workload>.json.
//
// Two further modes drive whole sets of runs of this same binary:
//
//	e2ebench -aa 5       two interleaved sets of 5 runs per workload;
//	                     prints both medians, |Δ|/median, the spread and
//	                     the bound per workload × metric; exits non-zero
//	                     on a breach (bench/AA.md is this output)
//	e2ebench -report     one traced run per workload; prints the
//	                     where-the-time-goes tables (bench/PERF.md)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/mayflower-dfs/mayflower/bench/e2e"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (one of: "+workloadNames()+"); -aa and -report default to all")
		seed     = flag.Int64("seed", 1, "the run's only source of randomness; -aa uses seed, seed+1, ...")
		seconds  = flag.Int("seconds", 20, "measured window in seconds")
		trace    = flag.Int("trace", 0, "1: traced run, report per-layer metrics; 0: report end-to-end metrics")
		workDir  = flag.String("workdir", "", "directory for cluster state (default: the system temp directory)")
		outDir   = flag.String("out", "bench/out", "directory traces are written to")
		aa       = flag.Int("aa", 0, "run two interleaved sets of N runs per workload and compare them")
		report   = flag.Bool("report", false, "run every workload traced and print the PERF.md tables")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}

	var names []string
	if *workload != "" {
		if e2e.FindWorkload(*workload) == nil {
			fatalf("unknown workload %q (have: %s)", *workload, workloadNames())
		}
		names = []string{*workload}
	} else {
		for _, w := range e2e.Workloads {
			names = append(names, w.Name)
		}
	}

	switch {
	case *aa > 0:
		self, err := os.Executable()
		if err != nil {
			fatalf("%v", err)
		}
		ok, err := e2e.RunAA(os.Stdout, e2e.AAConfig{
			Binary: self, Workloads: names, N: *aa, Seed: *seed, Seconds: *seconds, WorkDir: *workDir, Log: os.Stderr,
		})
		if err != nil {
			fatalf("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
	case *report:
		var results []*e2e.Result
		for _, name := range names {
			res, err := e2e.Run(e2e.Options{
				Workload: name, Seed: *seed, Window: time.Duration(*seconds) * time.Second,
				Trace: true, WorkDir: *workDir, Log: os.Stderr,
			})
			if err != nil {
				fatalf("%s: %v", name, err)
			}
			if _, err := res.WriteTrace(*outDir); err != nil {
				fatalf("%v", err)
			}
			results = append(results, res)
		}
		e2e.WriteReport(os.Stdout, results, *seconds)
	default:
		if *workload == "" {
			fatalf("-workload is required (one of: %s)", workloadNames())
		}
		runOne(*workload, *seed, *seconds, *trace != 0, *workDir, *outDir)
	}
}

func runOne(workload string, seed int64, seconds int, trace bool, workDir, outDir string) {
	res, err := e2e.Run(e2e.Options{
		Workload: workload, Seed: seed, Window: time.Duration(seconds) * time.Second,
		Trace: trace, WorkDir: workDir, Log: os.Stderr,
	})
	if err != nil {
		fatalf("%s: %v", workload, err)
	}
	for _, w := range res.Warnings {
		fmt.Fprintln(os.Stderr, "warning:", w)
	}
	if trace {
		path, err := res.WriteTrace(outDir)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintln(os.Stderr, "trace written to", path)
	}

	spec := e2e.EndToEnd
	if trace {
		spec = e2e.PerLayer
	}
	fmt.Printf("%s seed=%d window=%ds attempted=%d failed=%d correct=%v\n",
		res.Workload, res.Seed, seconds, res.Attempted, res.Failed, res.Correct)
	for _, m := range spec {
		v := res.Metrics[m.Name]
		line := fmt.Sprintf("  %-36s %14.4f %-6s (%s is better", m.Name, v.Value, v.Unit, m.Better)
		if m.Bound > 0 {
			line += fmt.Sprintf(", bound %.0f%%", m.Bound*100)
		}
		fmt.Println(line + ")")
	}
	out, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]e2e.Value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(out))
}

func workloadNames() string {
	names := make([]string, len(e2e.Workloads))
	for i, w := range e2e.Workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
	os.Exit(2)
}
