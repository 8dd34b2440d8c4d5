package testbed

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/nameserver"
	"github.com/mayflower-dfs/mayflower/internal/obs"
	"github.com/mayflower-dfs/mayflower/internal/stats"
	"github.com/mayflower-dfs/mayflower/internal/workload"
)

// ExperimentConfig parameterizes one prototype run (one bar group of
// Figure 8).
type ExperimentConfig struct {
	// Mode is the filesystem configuration under test.
	Mode Mode
	// Lambda is the Poisson arrival rate per server per second, in the
	// scaled timebase.
	Lambda float64
	// NumJobs / WarmupJobs control run length; warmup jobs are excluded
	// from statistics.
	NumJobs    int
	WarmupJobs int
	// NumFiles is the catalog size; FileBytes the per-file read size.
	NumFiles  int
	FileBytes int64
	// Replication is the replica count per file.
	Replication int
	// Locality is the staggered client placement distribution.
	Locality workload.Locality
	// Seed drives all randomness.
	Seed int64
	// MultiReplica enables §4.3 split reads (ModeMayflower only).
	MultiReplica bool
	// Metrics, when non-nil, receives the run's cluster metrics and
	// drift audit (see ClusterConfig.Metrics). Sharing one registry
	// across runs accumulates drift histograms; plain server counters
	// are re-registered per run and reflect the latest one.
	Metrics *obs.Registry
}

// DefaultExperiment returns a scaled Figure 8 configuration for a mode.
func DefaultExperiment(mode Mode) ExperimentConfig {
	return ExperimentConfig{
		Mode: mode,
		// The scaled testbed compresses time: a 1 MB read over a lone
		// 64 Mbps edge link takes 125 ms (versus ~2 s for 256 MB at
		// 1 Gbps in the paper), and λ is raised so the hot files reach
		// the same utilization the paper's workload produces.
		Lambda:      2.5,
		NumJobs:     140,
		WarmupJobs:  20,
		NumFiles:    40,
		FileBytes:   1 << 20,
		Replication: 3,
		Locality:    workload.LocalityRackHeavy,
		Seed:        1,
	}
}

// ExperimentResult is one prototype run's outcome.
type ExperimentResult struct {
	Mode Mode
	// CompletionTimes holds per-job wall-clock completion times in
	// seconds, warmup excluded.
	CompletionTimes []float64
	Summary         stats.Summary
	// Errors counts failed reads (must be zero for a valid run).
	Errors int
}

// RunExperiment boots a cluster in the configured mode, loads the file
// catalog, replays the synthetic read trace against it in real time, and
// reports completion-time statistics.
func RunExperiment(cfg ExperimentConfig) (*ExperimentResult, error) {
	if cfg.NumJobs <= 0 || cfg.WarmupJobs < 0 || cfg.WarmupJobs >= cfg.NumJobs {
		return nil, fmt.Errorf("testbed: bad job counts %d/%d", cfg.NumJobs, cfg.WarmupJobs)
	}
	if cfg.FileBytes <= 0 || cfg.NumFiles <= 0 {
		return nil, fmt.Errorf("testbed: bad catalog %d×%d", cfg.NumFiles, cfg.FileBytes)
	}
	cluster, err := NewCluster(ClusterConfig{
		Mode:         cfg.Mode,
		Seed:         cfg.Seed,
		MultiReplica: cfg.MultiReplica,
		Metrics:      cfg.Metrics,
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()

	rng := rand.New(rand.NewSource(cfg.Seed))
	cat, err := workload.NewCatalog(cluster.Topo, rng, workload.CatalogConfig{
		NumFiles:    cfg.NumFiles,
		SizeBits:    float64(cfg.FileBytes) * 8,
		Replication: cfg.Replication,
		Placement:   workload.PlacementPaperEval,
	})
	if err != nil {
		return nil, err
	}
	if err := loadCatalog(cluster, cat, cfg.FileBytes); err != nil {
		return nil, err
	}
	jobs, err := workload.Generate(cluster.Topo, rng, cat, workload.TraceConfig{
		LambdaPerServer: cfg.Lambda,
		NumJobs:         cfg.NumJobs,
		ZipfSkew:        1.1,
		Locality:        cfg.Locality,
	})
	if err != nil {
		return nil, err
	}
	return replay(cluster, cfg, jobs)
}

func fileName(i int) string { return fmt.Sprintf("bench/file-%04d", i) }

// loadCatalog creates every catalog file in the DFS with its placement
// pinned to the catalog's replica hosts, and fills it with data.
func loadCatalog(cluster *Cluster, cat *workload.Catalog, fileBytes int64) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	payload := make([]byte, fileBytes)
	for i := range payload {
		payload[i] = byte(i * 131)
	}
	for _, f := range cat.Files {
		// Write through a client co-located with the primary so loading
		// does not cross the emulated network's pacing path.
		cl, err := cluster.Client(f.Replicas[0])
		if err != nil {
			return err
		}
		servers := make([]string, len(f.Replicas))
		for j, h := range f.Replicas {
			servers[j] = cluster.ServerID(h)
		}
		name := fileName(f.Index)
		if _, err := cl.Create(ctx, name, nameserver.CreateOptions{
			ChunkSize:         fileBytes,
			PreferredReplicas: servers,
		}); err != nil {
			return fmt.Errorf("create %s: %w", name, err)
		}
		if _, err := cl.Append(ctx, name, payload); err != nil {
			return fmt.Errorf("fill %s: %w", name, err)
		}
	}
	return nil
}

// replay fires each job at its trace time and waits for all of them.
func replay(cluster *Cluster, cfg ExperimentConfig, jobs []workload.Job) (*ExperimentResult, error) {
	type outcome struct {
		job      workload.Job
		duration float64
		err      error
	}
	results := make([]outcome, len(jobs))
	var wg sync.WaitGroup
	start := time.Now()

	for i := range jobs {
		job := jobs[i]
		i := i
		cl, err := cluster.Client(job.Client)
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		due := start.Add(time.Duration(job.Time * float64(time.Second)))
		time.AfterFunc(time.Until(due), func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
			defer cancel()
			t0 := time.Now()
			data, err := cl.ReadAll(ctx, fileName(job.FileIndex))
			d := time.Since(t0).Seconds()
			if err == nil && int64(len(data)) != cfg.FileBytes {
				err = fmt.Errorf("testbed: read %d bytes, want %d", len(data), cfg.FileBytes)
			}
			results[i] = outcome{job: job, duration: d, err: err}
		})
	}
	wg.Wait()

	res := &ExperimentResult{Mode: cfg.Mode}
	sort.Slice(results, func(i, j int) bool { return results[i].job.ID < results[j].job.ID })
	for _, r := range results {
		if r.err != nil {
			res.Errors++
			continue
		}
		if r.job.ID >= cfg.WarmupJobs {
			res.CompletionTimes = append(res.CompletionTimes, r.duration)
		}
	}
	res.Summary = stats.Summarize(res.CompletionTimes)
	if res.Errors > 0 {
		return res, fmt.Errorf("testbed: %d of %d reads failed", res.Errors, len(jobs))
	}
	return res, nil
}
