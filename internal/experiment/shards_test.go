package experiment

import (
	"bytes"
	"testing"
)

// TestGoldenShardSweep pins the flowctl shard-count figure: Mayflower's
// workload replayed with the control plane partitioned 1/2/4 ways. The
// multi-shard rows quantify what bounded-staleness digests cost relative
// to the exact one-shard model on the same trace (the path every other
// golden runs on).
func TestGoldenShardSweep(t *testing.T) {
	cfg := goldenConfig()
	cfg.Workers = 4
	sw, err := ShardSweep(cfg, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	var txt, csv bytes.Buffer
	if err := WriteSweep(&txt, sw, "shards"); err != nil {
		t.Fatal(err)
	}
	if err := WriteSweepCSV(&csv, sw, "shards"); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "shards.golden", txt.Bytes())
	checkGolden(t, "shards.csv.golden", csv.Bytes())
}

// TestShardSweepWorkerInvariance: the sharded plane is as deterministic
// as the single controller — the sweep renders byte-identical tables
// sequentially and under -j 8.
func TestShardSweepWorkerInvariance(t *testing.T) {
	run := func(workers int) []byte {
		cfg := goldenConfig()
		cfg.NumJobs = 100
		cfg.Workers = workers
		sw, err := ShardSweep(cfg, []int{2, 4})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteSweep(&buf, sw, "shards"); err != nil {
			t.Fatal(err)
		}
		if err := WriteSweepCSV(&buf, sw, "shards"); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seq, par := run(1), run(8)
	if !bytes.Equal(seq, par) {
		t.Errorf("shard sweep differs across worker counts.\n--- workers=1\n%s--- workers=8\n%s", seq, par)
	}
}

// TestShardedRunCompletes smoke-tests a sharded cell end to end and
// checks every job is accounted for (no flows stall when cross-pod
// selections run against digest estimates).
func TestShardedRunCompletes(t *testing.T) {
	cfg := goldenConfig()
	cfg.NumJobs = 120
	cfg.WarmupJobs = 20
	cfg.Shards = 4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(res.CompletionTimes), cfg.NumJobs-cfg.WarmupJobs; got != want {
		t.Errorf("completed %d of %d measured jobs", got, want)
	}
	if res.Drift == nil {
		t.Error("sharded run reported no drift audit")
	}
}

// TestShardsValidation: the config rejects sharded multi-replica (the
// §4.3 trial-commit would need an atomic two-shard snapshot).
func TestShardsValidation(t *testing.T) {
	cfg := goldenConfig()
	cfg.Shards = 2
	cfg.MultiReplica = true
	if _, err := Run(cfg); err == nil {
		t.Error("sharded multi-replica accepted")
	}
	cfg.MultiReplica = false
	cfg.Shards = -1
	if _, err := Run(cfg); err == nil {
		t.Error("negative shard count accepted")
	}
}
