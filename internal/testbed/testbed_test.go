package testbed

import (
	"bytes"
	"context"
	"testing"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/nameserver"
	"github.com/mayflower-dfs/mayflower/internal/topology"
	"github.com/mayflower-dfs/mayflower/internal/workload"
)

// tinyTopo keeps test clusters small: 8 hosts, fast links so pacing
// overhead stays negligible.
func tinyTopo() topology.Config {
	edge := topology.Mbps(512)
	return topology.Config{
		Pods: 2, RacksPerPod: 2, HostsPerRack: 2, AggsPerPod: 2, Cores: 2,
		EdgeLinkBps: edge, EdgeAggLinkBps: edge / 2, AggCoreLinkBps: edge / 8,
	}
}

func TestClusterEndToEnd(t *testing.T) {
	for _, mode := range []Mode{ModeMayflower, ModeHDFSMayflower, ModeHDFSECMP} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			cluster, err := NewCluster(ClusterConfig{Mode: mode, Topo: tinyTopo(), Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()

			writer, err := cluster.Client(cluster.Topo.HostAt(0, 0, 0))
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()

			if _, err := writer.Create(ctx, "e2e", nameserver.CreateOptions{ChunkSize: 1 << 20}); err != nil {
				t.Fatal(err)
			}
			payload := bytes.Repeat([]byte("mayflower!"), 20_000) // 200 KB
			if _, err := writer.Append(ctx, "e2e", payload); err != nil {
				t.Fatal(err)
			}

			reader, err := cluster.Client(cluster.Topo.HostAt(1, 1, 1))
			if err != nil {
				t.Fatal(err)
			}
			got, err := reader.ReadAll(ctx, "e2e")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatal("read returned wrong bytes")
			}
			// Mayflower modes must drain their flow model: the releases
			// ride the next Select or leave a linger later.
			waitDrained(t, cluster, releaseBound)
		})
	}
}

func TestClusterPacingObservable(t *testing.T) {
	// A cross-pod read at 8 Mbps agg-core bottleneck: 512 KB should take
	// roughly half a second — proving reads really cross the emulated
	// network rather than raw loopback.
	cfg := tinyTopo()
	cfg.EdgeLinkBps = topology.Mbps(8)
	cfg.EdgeAggLinkBps = topology.Mbps(8)
	cfg.AggCoreLinkBps = topology.Mbps(8)
	cluster, err := NewCluster(ClusterConfig{Mode: ModeMayflower, Topo: cfg, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	primaryHost := cluster.Topo.HostAt(0, 0, 0)
	writer, err := cluster.Client(primaryHost)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Create(ctx, "paced", nameserver.CreateOptions{
		ChunkSize:         1 << 20,
		PreferredReplicas: []string{cluster.ServerID(primaryHost)},
	}); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 512<<10)
	if _, err := writer.Append(ctx, "paced", payload); err != nil {
		t.Fatal(err)
	}

	reader, err := cluster.Client(cluster.Topo.HostAt(1, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got, err := reader.ReadAll(ctx, "paced")
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if len(got) != len(payload) {
		t.Fatalf("read %d bytes", len(got))
	}
	// 512 KB at 8 Mbps ≈ 0.5 s (single replica, single path).
	if elapsed < 300*time.Millisecond {
		t.Errorf("read took %v; pacing seems bypassed", elapsed)
	}
}

func TestRunExperimentSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("prototype experiment is wall-clock bound")
	}
	for _, mode := range []Mode{ModeMayflower, ModeHDFSECMP} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			cfg := ExperimentConfig{
				Mode:        mode,
				Lambda:      1.5,
				NumJobs:     30,
				WarmupJobs:  5,
				NumFiles:    10,
				FileBytes:   256 << 10,
				Replication: 3,
				Locality:    workload.LocalityRackHeavy,
				Seed:        4,
			}
			res, err := RunExperiment(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Errors != 0 {
				t.Fatalf("%d read errors", res.Errors)
			}
			if res.Summary.N != cfg.NumJobs-cfg.WarmupJobs {
				t.Fatalf("measured %d jobs, want %d", res.Summary.N, cfg.NumJobs-cfg.WarmupJobs)
			}
			if res.Summary.Mean <= 0 {
				t.Fatal("non-positive mean completion time")
			}
		})
	}
}

func TestRunExperimentValidation(t *testing.T) {
	bad := DefaultExperiment(ModeMayflower)
	bad.NumJobs = 0
	if _, err := RunExperiment(bad); err == nil {
		t.Error("zero jobs accepted")
	}
	bad = DefaultExperiment(ModeMayflower)
	bad.FileBytes = 0
	if _, err := RunExperiment(bad); err == nil {
		t.Error("zero file size accepted")
	}
}

func TestModeString(t *testing.T) {
	tests := map[Mode]string{
		ModeMayflower:     "Mayflower",
		ModeHDFSMayflower: "HDFS-Mayflower",
		ModeHDFSECMP:      "HDFS-ECMP",
		Mode(9):           "Mode(9)",
	}
	for m, want := range tests {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(m), got, want)
		}
	}
}

func TestScaledTestbedOversubscription(t *testing.T) {
	cfg := ScaledTestbed()
	topo, err := topology.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumHosts() != 16 {
		t.Errorf("hosts = %d, want 16", topo.NumHosts())
	}
	// Core-to-rack oversubscription: pod host bw / pod core bw = 8.
	podHost := float64(cfg.RacksPerPod*cfg.HostsPerRack) * cfg.EdgeLinkBps
	podCore := float64(cfg.AggsPerPod*cfg.Cores) * cfg.AggCoreLinkBps
	if ratio := podHost / podCore; ratio < 7.9 || ratio > 8.1 {
		t.Errorf("core-to-rack oversubscription = %g, want 8", ratio)
	}
}
