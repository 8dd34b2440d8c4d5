package experiment

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update regenerates the golden files instead of comparing against them:
//
//	go test ./internal/experiment/ -run TestGolden -update
//
// Inspect the diff before committing — a golden change means the figure
// pipeline's output changed for a pinned seed.
var update = flag.Bool("update", false, "rewrite golden files")

// goldenConfig is the pinned configuration every golden table is
// generated from. Changing anything here invalidates the goldens.
func goldenConfig() Config {
	cfg := Defaults(SchemeMayflower)
	cfg.NumJobs = 150
	cfg.WarmupJobs = 20
	cfg.NumFiles = 80
	cfg.Seed = 1
	return cfg
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file.\n--- want\n%s--- got\n%s\n(rerun with -update if the change is intended)",
			name, want, got)
	}
}

// TestGoldenFigure4 pins the Figure 4 normalized table — text and CSV —
// for the golden seed. The parallel sweep runner must keep reproducing
// these bytes regardless of worker count.
func TestGoldenFigure4(t *testing.T) {
	cfg := goldenConfig()
	cfg.Workers = 4
	tbl, err := Figure4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var txt, csv bytes.Buffer
	if err := WriteNormalizedTable(&txt, tbl); err != nil {
		t.Fatal(err)
	}
	if err := WriteNormalizedCSV(&csv, tbl); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "figure4.golden", txt.Bytes())
	checkGolden(t, "figure4.csv.golden", csv.Bytes())
}

// TestGoldenFigure6b pins a reduced Figure 6(b) λ-series.
func TestGoldenFigure6b(t *testing.T) {
	cfg := goldenConfig()
	cfg.Workers = 4
	sw, err := lambdaSweep(cfg, "figure 6(b) reduced: mean completion vs λ", []float64{0.06, 0.09})
	if err != nil {
		t.Fatal(err)
	}
	var txt, csv bytes.Buffer
	if err := WriteSweep(&txt, sw, "lambda"); err != nil {
		t.Fatal(err)
	}
	if err := WriteSweepCSV(&csv, sw, "lambda"); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "figure6b.golden", txt.Bytes())
	checkGolden(t, "figure6b.csv.golden", csv.Bytes())
}

// TestGoldenFigure7 pins the Figure 7 oversubscription series.
func TestGoldenFigure7(t *testing.T) {
	cfg := goldenConfig()
	cfg.Workers = 4
	sw, err := Figure7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var txt, csv bytes.Buffer
	if err := WriteSweep(&txt, sw, "oversub"); err != nil {
		t.Fatal(err)
	}
	if err := WriteSweepCSV(&csv, sw, "oversub"); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "figure7.golden", txt.Bytes())
	checkGolden(t, "figure7.csv.golden", csv.Bytes())
}

// TestGoldenFigure9 pins a reduced Figure 9 write-fraction series: the
// write-path model (ingest hop + SelectWritePipeline replication fan-out)
// must keep reproducing these bytes for the pinned seed.
func TestGoldenFigure9(t *testing.T) {
	cfg := goldenConfig()
	cfg.Workers = 4
	sw, err := WriteFractionSweep(cfg, []float64{0.25, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var txt, csv bytes.Buffer
	if err := WriteSweep(&txt, sw, "write-frac"); err != nil {
		t.Fatal(err)
	}
	if err := WriteSweepCSV(&csv, sw, "write-frac"); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "figure9.golden", txt.Bytes())
	checkGolden(t, "figure9.csv.golden", csv.Bytes())
}

// TestSweepFigure9WorkerInvariance checks the write sweep renders
// byte-identical tables sequentially and under -j 8: the write/read coin
// is a pure hash of (seed, job ID), never of scheduling.
func TestSweepFigure9WorkerInvariance(t *testing.T) {
	run := func(workers int) []byte {
		cfg := goldenConfig()
		cfg.NumJobs = 100
		cfg.Workers = workers
		sw, err := WriteFractionSweep(cfg, []float64{0.5})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteSweep(&buf, sw, "write-frac"); err != nil {
			t.Fatal(err)
		}
		if err := WriteSweepCSV(&buf, sw, "write-frac"); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seq, par := run(1), run(8)
	if !bytes.Equal(seq, par) {
		t.Errorf("write sweep differs across worker counts.\n--- workers=1\n%s--- workers=8\n%s", seq, par)
	}
}

// TestGoldenMultiRead pins the §4.3 split-read comparison: which reads
// split, their subflow sizes and finish skew all flow from the split's
// trial commit and rollback.
func TestGoldenMultiRead(t *testing.T) {
	res, err := MultiRead(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	var txt bytes.Buffer
	if err := WriteMultiRead(&txt, res); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "multiread.golden", txt.Bytes())
}

// TestGoldenTrials pins a two-trial table so the trial-merge path
// (Student-t over per-trial paired ratios) is golden-covered too.
func TestGoldenTrials(t *testing.T) {
	cfg := goldenConfig()
	cfg.NumJobs = 100
	cfg.Trials = 2
	cfg.Workers = 4
	tbl, err := normalizedComparison(cfg, []Scheme{SchemeMayflower, SchemeNearestECMP})
	if err != nil {
		t.Fatal(err)
	}
	var txt bytes.Buffer
	if err := WriteNormalizedTable(&txt, tbl); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trials.golden", txt.Bytes())
}
