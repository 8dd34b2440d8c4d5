package experiment

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/mayflower-dfs/mayflower/internal/obs"
	"github.com/mayflower-dfs/mayflower/internal/testutil"
	"github.com/mayflower-dfs/mayflower/internal/topology"
)

// Cell is one independent run in a figure grid: a fully resolved Config
// plus the coordinates the figure assembly needs to put its result back
// in the right row. The paper's evaluation (§6, Figures 4-8) is exactly
// such a grid — (scheme × parameter × trial) cells that share nothing at
// runtime — which is what makes the sweep embarrassingly parallel.
type Cell struct {
	// Figure labels the grid the cell belongs to ("fig6b", "fig5/…").
	Figure string
	// X is the cell's figure x-coordinate (λ, oversubscription, load…).
	X float64
	// Scheme is the replica/path selection combination under test.
	Scheme Scheme
	// Trial numbers the repetition within the cell's group; trial 0 runs
	// on the base seed, trial k > 0 on a seed derived from (Seed, k).
	Trial int
	// Index is the cell's position in enumeration order. Results are
	// assembled in Index order regardless of completion order, which is
	// what keeps rendered tables byte-identical across worker counts.
	Index int
	// Config is the cell's fully resolved configuration (seed included).
	Config Config
}

// groupKey identifies the cell group (figure point) a cell's trials are
// merged into.
func (c Cell) groupKey() string {
	return fmt.Sprintf("%s/x=%g/%s", c.Figure, c.X, schemeSlug(c.Scheme))
}

// Name uniquely identifies a cell; it prefixes the cell's metrics in the
// parent registry and its lines in the aggregated progress stream.
func (c Cell) Name() string {
	return fmt.Sprintf("%s/t%d", c.groupKey(), c.Trial)
}

// Sweep enumerates experiment cells up front and executes them on a
// bounded worker pool. Determinism is preserved by construction:
//
//   - every cell's seed is a pure function of the base seed and the
//     cell's coordinates (see seedForTrial), never of scheduling;
//   - each cell runs the single-cell primitive Run with its own RNG,
//     fabric, and registry, sharing only the immutable topology;
//   - results are assembled in cell order, and the first error in cell
//     order wins, so output and errors are identical for every Workers
//     value, including 1 (the sequential path).
type Sweep struct {
	// Workers bounds how many cells execute concurrently; <= 0 means
	// GOMAXPROCS. The value never affects results, only wall-clock time.
	Workers int
	// Progress, when set, receives each cell's per-scheme progress lines
	// prefixed with the cell name, one line per write under one lock, so
	// lines from concurrent cells never interleave mid-line.
	Progress io.Writer
	// Metrics, when set, receives every cell's private registry merged
	// under the prefix "cell.<cell name>." after the cell completes.
	Metrics *obs.Registry

	cells []Cell
}

// NewSweep creates an empty sweep taking its execution knobs (Workers,
// Progress, Metrics) from a base configuration. The knobs live on Config
// so the figure entry points — which take only a Config — stay
// parameterizable without signature changes.
func NewSweep(base Config) *Sweep {
	return &Sweep{Workers: base.Workers, Progress: base.Progress, Metrics: base.Metrics}
}

// AddPoint appends one figure point to the sweep: cfg.Trials cells (at
// least one) whose seeds are derived from (cfg.Seed, trial). Trials of
// the same point share a group; RunGroups folds them back together.
func (s *Sweep) AddPoint(figure string, x float64, cfg Config) {
	trials := cfg.Trials
	if trials < 1 {
		trials = 1
	}
	for t := 0; t < trials; t++ {
		c := Cell{
			Figure: figure,
			X:      x,
			Scheme: cfg.Scheme,
			Trial:  t,
			Index:  len(s.cells),
			Config: cfg,
		}
		// The per-cell config must not alias the sweep-level knobs: the
		// sweep itself owns progress funneling and metrics merging.
		c.Config.Seed = seedForTrial(cfg.Seed, t)
		c.Config.Metrics = nil
		c.Config.Progress = nil
		s.cells = append(s.cells, c)
	}
}

// Cells returns the enumerated cells in execution (index) order.
func (s *Sweep) Cells() []Cell { return s.cells }

// seedForTrial derives the workload seed for one trial of a cell group.
// Trial 0 keeps the base seed, so single-trial sweeps reproduce the
// historical sequential tables byte for byte; trial k > 0 mixes k in
// through a SplitMix64 round, giving each repetition a statistically
// independent workload. Every scheme at a given (figure point, trial)
// shares the trial seed, keeping cross-scheme comparisons paired on the
// same workload — the §6.3 methodology the normalized tables rely on.
func seedForTrial(base int64, trial int) int64 {
	if trial == 0 {
		return base
	}
	return testutil.DeriveSeed(base, uint64(trial))
}

// Run executes every cell and returns the results in cell order. A nil
// error means every cell succeeded; otherwise the error of the earliest
// failing cell (in cell order, not completion order) is returned.
func (s *Sweep) Run() ([]*Result, error) {
	cells := make([]Cell, len(s.cells))
	copy(cells, s.cells)
	if err := shareTopologies(cells); err != nil {
		return nil, err
	}

	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	if workers < 1 {
		workers = 1
	}

	var (
		results = make([]*Result, len(cells))
		errs    = make([]error, len(cells))
		next    atomic.Int64
		progMu  sync.Mutex
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				cell := cells[i]
				cfg := cell.Config
				// Each cell gets a private registry; merging under the
				// per-cell prefix happens after the run, so no two live
				// cells ever share metric writer state.
				reg := obs.NewRegistry()
				cfg.Metrics = reg
				if s.Progress != nil {
					cfg.Progress = prefixWriter{&progMu, s.Progress, "[" + cell.Name() + "] "}
				}
				res, err := Run(cfg)
				if err != nil {
					errs[i] = fmt.Errorf("cell %s: %w", cell.Name(), err)
					continue
				}
				results[i] = res
				if s.Metrics != nil {
					s.Metrics.Merge(reg, "cell."+cell.Name()+".")
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// Group is one figure point reassembled from its trial cells, in trial
// order.
type Group struct {
	Figure  string
	X       float64
	Scheme  Scheme
	Cells   []Cell
	Results []*Result
}

// RunGroups runs the sweep and folds the per-cell results back into
// figure points, in first-enumerated order. This is the entry point the
// figure builders use: enumerate with AddPoint, then consume one Group
// per table row or series point.
func (s *Sweep) RunGroups() ([]Group, error) {
	results, err := s.Run()
	if err != nil {
		return nil, err
	}
	var (
		order []string
		byKey = make(map[string]*Group)
	)
	for i, c := range s.cells {
		key := c.groupKey()
		g, ok := byKey[key]
		if !ok {
			order = append(order, key)
			g = &Group{Figure: c.Figure, X: c.X, Scheme: c.Scheme}
			byKey[key] = g
		}
		g.Cells = append(g.Cells, c)
		g.Results = append(g.Results, results[i])
	}
	out := make([]Group, 0, len(order))
	for _, key := range order {
		out = append(out, *byKey[key])
	}
	return out, nil
}

// shareTopologies resolves the default paper testbed once per distinct
// oversubscription ratio so parallel cells share one immutable topology —
// and its memoized shortest-path cache — instead of rebuilding both per
// cell. Cells with an explicit Topo, or with an invalid oversubscription
// (left for Run's validation to report), are untouched.
func shareTopologies(cells []Cell) error {
	shared := make(map[float64]*topology.Topology)
	for i := range cells {
		cfg := &cells[i].Config
		if cfg.Topo != nil || cfg.Oversubscription <= 0 {
			continue
		}
		topo, ok := shared[cfg.Oversubscription]
		if !ok {
			var err error
			topo, err = topology.New(topology.PaperTestbed(cfg.Oversubscription))
			if err != nil {
				return fmt.Errorf("cell %s: %w", cells[i].Name(), err)
			}
			shared[cfg.Oversubscription] = topo
		}
		cfg.Topo = topo
	}
	return nil
}

// prefixWriter prefixes a cell's progress lines with its name. Every
// Config.Progress write is one whole line (reportProgress makes one
// Fprintf per line), so one mutex shared by all cells keeps lines from
// different cells whole under -j 8.
type prefixWriter struct {
	mu     *sync.Mutex
	w      io.Writer
	prefix string
}

func (p prefixWriter) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	io.WriteString(p.w, p.prefix+string(b)) //nolint:errcheck // progress output is best effort
	return len(b), nil
}
