package testbed

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
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

// TestRackAwarePickerConcurrent: one HDFS-mode client reads from many
// goroutines through one picker (run under -race).
func TestRackAwarePickerConcurrent(t *testing.T) {
	topo, err := topology.New(ScaledTestbed())
	if err != nil {
		t.Fatal(err)
	}
	c := &Cluster{Topo: topo, rng: rand.New(rand.NewSource(5))}
	pick := c.hdfsPicker("host-p1-r1-h0")
	var rackLocal, remote nameserver.FileInfo
	for _, h := range []string{"host-p0-r0-h0", "host-p1-r1-h3", "host-p1-r0-h2"} {
		rackLocal.Replicas = append(rackLocal.Replicas, nameserver.ReplicaLoc{ServerID: "ds-" + h, Host: h})
	}
	remote.Replicas = []nameserver.ReplicaLoc{rackLocal.Replicas[0], rackLocal.Replicas[2]}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if got := pick(rackLocal); got.Host != "host-p1-r1-h3" {
					t.Errorf("pick = %s, want the rack-local replica", got.Host)
				}
				pick(remote)
			}
		}()
	}
	wg.Wait()
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

// TestSplitReadSpeedup holds §4.3's claim on the prototype: with each pod
// behind 10 Mbps uplinks and the client's own edge at 100 Mbps, a read
// split across replicas in two other pods runs about twice as fast as a
// read from one of them, because the two subflows share no bottleneck
// before the client's edge.
func TestSplitReadSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock bound")
	}
	const fileBytes = 1 << 20 // ~0.84 s at 10 Mbps, ~0.42 s split
	payload := make([]byte, fileBytes)
	rand.New(rand.NewSource(1)).Read(payload)
	read := func(multi bool) time.Duration {
		cluster, err := NewCluster(ClusterConfig{
			Mode: ModeMayflower, Seed: 7, MultiReplica: multi,
			Topo: topology.Config{
				Pods: 3, RacksPerPod: 1, HostsPerRack: 2, AggsPerPod: 2, Cores: 2,
				EdgeLinkBps:    topology.Mbps(100),
				EdgeAggLinkBps: topology.Mbps(10),
				AggCoreLinkBps: topology.Mbps(10),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()

		rep1, rep2 := cluster.Topo.HostAt(1, 0, 0), cluster.Topo.HostAt(2, 0, 0)
		writer, err := cluster.Client(rep1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := writer.Create(ctx, "split", nameserver.CreateOptions{
			ChunkSize:         fileBytes,
			PreferredReplicas: []string{cluster.ServerID(rep1), cluster.ServerID(rep2)},
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := writer.Append(ctx, "split", payload); err != nil {
			t.Fatal(err)
		}
		reader, err := cluster.Client(cluster.Topo.HostAt(0, 0, 0))
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		got, err := reader.ReadAll(ctx, "split")
		elapsed := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("MultiReplica=%v read returned wrong bytes", multi)
		}
		return elapsed
	}
	single, split := read(false), read(true)
	speedup := float64(single) / float64(split)
	t.Logf("1 MiB cross-pod read: one replica %v, split across two %v, %.2fx", single, split, speedup)
	if speedup < 1.6 {
		t.Errorf("split read speedup %.2fx (%v vs %v), want at least 1.6x", speedup, single, split)
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
