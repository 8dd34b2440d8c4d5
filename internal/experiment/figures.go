package experiment

import (
	"fmt"

	"github.com/mayflower-dfs/mayflower/internal/stats"
	"github.com/mayflower-dfs/mayflower/internal/workload"
)

// Every figure builder in this file enumerates its (scheme × parameter ×
// trial) grid into a Sweep, executes the cells on the bounded worker
// pool, and assembles the table from the per-group results in
// enumeration order. The assembly is pure, so the rendered tables are
// byte-identical for every Config.Workers value; Config.Trials > 1 adds
// repetitions per point, merged with Student-t confidence intervals.

// NormalizedRow is one bar of Figures 4, 5 and 8: a scheme's average and
// 95th percentile completion time normalized to Mayflower's, with a
// confidence interval on the ratio of means.
type NormalizedRow struct {
	Scheme   Scheme
	AvgRatio float64
	AvgCI    stats.Interval
	P95Ratio float64
	// Raw summaries for reference. With Trials > 1 this pools the
	// completion times of every trial.
	Summary stats.Summary
}

// NormalizedTable is a group of normalized bars sharing one workload.
type NormalizedTable struct {
	Locality workload.Locality
	Lambda   float64
	Rows     []NormalizedRow
}

// Figure4 reproduces Figure 4: average and 95th-percentile job completion
// times of the five schemes normalized to Mayflower, with 50% of clients
// in the same rack as the primary replica (locality 0.5, 0.3, 0.2) and
// λ = 0.07.
func Figure4(base Config) (*NormalizedTable, error) {
	base.Locality = workload.LocalityRackHeavy
	return normalizedComparison(base, AllSchemes)
}

// Figure5 reproduces Figure 5: the Figure 4 comparison across the four
// client-locality distributions (0.5,0.3,0.2), (0.3,0.5,0.2),
// (0.2,0.3,0.5) and (1/3,1/3,1/3). All four tables' cells run in one
// sweep, so the worker pool stays busy across table boundaries.
func Figure5(base Config) ([]*NormalizedTable, error) {
	locs := []workload.Locality{
		workload.LocalityRackHeavy,
		workload.LocalityPodHeavy,
		workload.LocalityCoreHeavy,
		workload.LocalityUniform,
	}
	sw := NewSweep(base)
	for li, loc := range locs {
		for _, s := range AllSchemes {
			cfg := base
			cfg.Locality = loc
			cfg.Scheme = s
			sw.AddPoint(fmt.Sprintf("fig5/%v", loc), float64(li), cfg)
		}
	}
	groups, err := sw.RunGroups()
	if err != nil {
		return nil, err
	}
	tables := make([]*NormalizedTable, 0, len(locs))
	for i, loc := range locs {
		perLoc := groups[i*len(AllSchemes) : (i+1)*len(AllSchemes)]
		tbl, err := normalizedTable(perLoc, loc, base.Lambda)
		if err != nil {
			return nil, fmt.Errorf("locality %v: %w", loc, err)
		}
		tables = append(tables, tbl)
	}
	return tables, nil
}

// Figure8 reproduces the prototype comparison of Figure 8 on the
// simulator: Mayflower against HDFS with and without Mayflower's network
// scheduler, normalized to Mayflower. (The paper runs this on the
// testbed; the same schemes run here on the shared workload so the
// comparison slots into the figure suite.)
func Figure8(base Config) (*NormalizedTable, error) {
	base.Locality = workload.LocalityRackHeavy
	return normalizedComparison(base, []Scheme{
		SchemeMayflower, SchemeHDFSMayflower, SchemeHDFSECMP,
	})
}

// normalizedComparison runs every scheme on the same workload seed and
// normalizes to the first scheme (Mayflower).
func normalizedComparison(base Config, schemes []Scheme) (*NormalizedTable, error) {
	if len(schemes) == 0 || schemes[0] != SchemeMayflower {
		return nil, fmt.Errorf("experiment: normalized comparison must lead with Mayflower")
	}
	sw := NewSweep(base)
	for _, s := range schemes {
		cfg := base
		cfg.Scheme = s
		sw.AddPoint("norm", 0, cfg)
	}
	groups, err := sw.RunGroups()
	if err != nil {
		return nil, err
	}
	return normalizedTable(groups, base.Locality, base.Lambda)
}

// normalizedTable folds one group per scheme (Mayflower first) into a
// normalized table. With a single trial the ratios carry the Fieller
// interval from stats.RatioCI, exactly as the sequential runner computed
// them; with Trials > 1 each trial contributes one paired ratio (the
// schemes of a trial share the workload seed) and the interval is the
// Student-t CI over those ratios.
func normalizedTable(groups []Group, loc workload.Locality, lambda float64) (*NormalizedTable, error) {
	if len(groups) == 0 || groups[0].Scheme != SchemeMayflower {
		return nil, fmt.Errorf("experiment: normalized comparison must lead with Mayflower")
	}
	baseGroup := groups[0]
	tbl := &NormalizedTable{Locality: loc, Lambda: lambda}
	for _, g := range groups {
		if len(g.Results) != len(baseGroup.Results) {
			return nil, fmt.Errorf("experiment: %v ran %d trials, Mayflower ran %d",
				g.Scheme, len(g.Results), len(baseGroup.Results))
		}
		row := NormalizedRow{Scheme: g.Scheme, Summary: pooledSummary(g.Results)}
		if len(g.Results) == 1 {
			res, baseRes := g.Results[0], baseGroup.Results[0]
			ratio, ci, err := stats.RatioCI(res.CompletionTimes, baseRes.CompletionTimes, 0.95)
			if err != nil {
				// Degenerate sample (e.g. tiny test runs): fall back to
				// the plain ratio without an interval.
				ratio = safeRatio(res.Summary.Mean, baseRes.Summary.Mean)
				ci = stats.Interval{Lo: ratio, Hi: ratio}
			}
			row.AvgRatio = ratio
			row.AvgCI = ci
			row.P95Ratio = safeRatio(res.Summary.P95, baseRes.Summary.P95)
		} else {
			ratios := make([]float64, len(g.Results))
			p95Ratios := make([]float64, len(g.Results))
			for t := range g.Results {
				ratios[t] = safeRatio(g.Results[t].Summary.Mean, baseGroup.Results[t].Summary.Mean)
				p95Ratios[t] = safeRatio(g.Results[t].Summary.P95, baseGroup.Results[t].Summary.P95)
			}
			mean, ci, err := stats.MeanCI(ratios, 0.95)
			if err != nil {
				mean = stats.Mean(ratios)
				ci = stats.Interval{Lo: mean, Hi: mean}
			}
			row.AvgRatio = mean
			row.AvgCI = ci
			row.P95Ratio = stats.Mean(p95Ratios)
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	return tbl, nil
}

// pooledSummary summarizes the completion times of all trials of a group.
func pooledSummary(results []*Result) stats.Summary {
	if len(results) == 1 {
		return results[0].Summary
	}
	var all []float64
	for _, res := range results {
		all = append(all, res.CompletionTimes...)
	}
	return stats.Summarize(all)
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// SeriesPoint is one (x, scheme) cell of a line figure: the mean
// completion time with its Student-t confidence interval, and the 95th
// percentile.
type SeriesPoint struct {
	X      float64 // λ for Figure 6, oversubscription for Figure 7
	Scheme Scheme
	Mean   float64
	MeanCI stats.Interval
	P95    float64
}

// Series is a line figure: a series of points per scheme.
type Series struct {
	Label    string
	Locality workload.Locality
	Points   []SeriesPoint
}

// Figure6a reproduces Figure 6(a): average and 95th-percentile completion
// times versus the per-server job arrival rate λ ∈ [0.06, 0.14] under
// rack-heavy locality (0.5, 0.3, 0.2).
func Figure6a(base Config) (*Series, error) {
	base.Locality = workload.LocalityRackHeavy
	return lambdaSweep(base, "fig6a", []float64{0.06, 0.07, 0.08, 0.09, 0.10, 0.11, 0.12, 0.13, 0.14})
}

// Figure6b reproduces Figure 6(b): the same sweep for λ ∈ [0.06, 0.10]
// under core-heavy locality (0.2, 0.3, 0.5).
func Figure6b(base Config) (*Series, error) {
	base.Locality = workload.LocalityCoreHeavy
	return lambdaSweep(base, "fig6b", []float64{0.06, 0.07, 0.08, 0.09, 0.10})
}

func lambdaSweep(base Config, label string, lambdas []float64) (*Series, error) {
	sw := NewSweep(base)
	for _, lambda := range lambdas {
		for _, s := range AllSchemes {
			cfg := base
			cfg.Lambda = lambda
			cfg.Scheme = s
			sw.AddPoint(label, lambda, cfg)
		}
	}
	return assembleSeries(sw, label, base.Locality)
}

// assembleSeries runs a sweep and turns each cell group into one series
// point, in enumeration order.
func assembleSeries(sw *Sweep, label string, loc workload.Locality) (*Series, error) {
	groups, err := sw.RunGroups()
	if err != nil {
		return nil, err
	}
	out := &Series{Label: label, Locality: loc}
	for _, g := range groups {
		out.Points = append(out.Points, seriesPoint(g))
	}
	return out, nil
}

// seriesPoint folds one cell group into a series point. A single trial
// reports the Student-t CI over that run's completion times (the
// sequential runner's historical behavior); multiple trials report the
// grand mean with the Student-t CI over the per-trial means — the
// replicated-run methodology (each trial is one independent sample).
func seriesPoint(g Group) SeriesPoint {
	if len(g.Results) == 1 {
		res := g.Results[0]
		mean, ci, err := stats.MeanCI(res.CompletionTimes, 0.95)
		if err != nil {
			mean = res.Summary.Mean
			ci = stats.Interval{Lo: mean, Hi: mean}
		}
		return SeriesPoint{X: g.X, Scheme: g.Scheme, Mean: mean, MeanCI: ci, P95: res.Summary.P95}
	}
	means := make([]float64, len(g.Results))
	p95s := make([]float64, len(g.Results))
	for t, res := range g.Results {
		means[t] = res.Summary.Mean
		p95s[t] = res.Summary.P95
	}
	mean, ci, err := stats.MeanCI(means, 0.95)
	if err != nil {
		mean = stats.Mean(means)
		ci = stats.Interval{Lo: mean, Hi: mean}
	}
	return SeriesPoint{X: g.X, Scheme: g.Scheme, Mean: mean, MeanCI: ci, P95: stats.Mean(p95s)}
}

// Figure7 reproduces Figure 7: the impact of core-to-rack oversubscription
// (8:1, 16:1, 24:1) on Mayflower and Sinbad-R Mayflower at λ = 0.07 with
// rack-heavy locality.
func Figure7(base Config) (*Series, error) {
	base.Locality = workload.LocalityRackHeavy
	sw := NewSweep(base)
	for _, over := range []float64{8, 16, 24} {
		for _, s := range []Scheme{SchemeMayflower, SchemeSinbadRMayflower} {
			cfg := base
			cfg.Oversubscription = over
			cfg.Scheme = s
			sw.AddPoint("fig7", over, cfg)
		}
	}
	return assembleSeries(sw, "fig7", base.Locality)
}

// MultiReadResult is the §4.3 ablation: Mayflower with and without
// parallel multi-replica reads.
type MultiReadResult struct {
	Single, Multi *Result
	// MeanReductionPct is the relative improvement of the mean completion
	// time from enabling multi-replica reads (positive = faster).
	MeanReductionPct float64
	// SkewSummary summarizes the finish-time difference between paired
	// subflows (the paper reports < 1 s for 256 MB reads).
	SkewSummary stats.Summary
}

// MultiRead runs the §4.3 multi-replica read experiment. Both arms run
// as cells of one sweep, so they execute concurrently under -j >= 2.
func MultiRead(base Config) (*MultiReadResult, error) {
	single := base
	single.Scheme = SchemeMayflower
	single.MultiReplica = false
	multi := single
	multi.MultiReplica = true

	sw := NewSweep(base)
	sw.AddPoint("multiread/single", 0, single)
	sw.AddPoint("multiread/multi", 1, multi)
	results, err := sw.Run()
	if err != nil {
		return nil, err
	}
	// Cells are laid out trial-major per arm: single trials first, then
	// multi trials. With Trials > 1 the headline numbers come from trial
	// 0 of each arm (the base seed); the extra trials still run and
	// surface through the sweep's metrics registry.
	rs, rm := results[0], results[len(results)/2]
	out := &MultiReadResult{Single: rs, Multi: rm, SkewSummary: stats.Summarize(rm.SubflowSkews)}
	if rs.Summary.Mean > 0 {
		out.MeanReductionPct = 100 * (rs.Summary.Mean - rm.Summary.Mean) / rs.Summary.Mean
	}
	return out, nil
}

// AblationResult compares the full algorithm against one disabled
// mechanism on the same workload.
type AblationResult struct {
	Name           string
	Full, Ablated  *Result
	MeanRatio      float64 // ablated mean / full mean (>1 = mechanism helps)
	P95Ratio       float64
	DisabledDetail string
}

// AblateCostTerm measures the contribution of Eq. 2's second term (the
// completion-time increase of existing flows).
func AblateCostTerm(base Config) (*AblationResult, error) {
	return ablate(base, "impact-term", "cost reduced to d_j/b_j only", func(c *Config) {
		c.DisableImpactTerm = true
	})
}

// AblateFreeze measures the contribution of the update-freeze slack
// (Pseudocode 2).
func AblateFreeze(base Config) (*AblationResult, error) {
	return ablate(base, "update-freeze", "stats polls overwrite fresh estimates", func(c *Config) {
		c.DisableFreeze = true
	})
}

func ablate(base Config, name, detail string, disable func(*Config)) (*AblationResult, error) {
	full := base
	full.Scheme = SchemeMayflower
	ab := full
	disable(&ab)

	sw := NewSweep(base)
	sw.AddPoint("ablate/"+name+"/full", 0, full)
	sw.AddPoint("ablate/"+name+"/ablated", 1, ab)
	results, err := sw.Run()
	if err != nil {
		return nil, err
	}
	// Trial-major layout per arm, as in MultiRead: the headline
	// comparison pairs trial 0 of both arms.
	rf, ra := results[0], results[len(results)/2]
	return &AblationResult{
		Name:           name,
		Full:           rf,
		Ablated:        ra,
		MeanRatio:      safeRatio(ra.Summary.Mean, rf.Summary.Mean),
		P95Ratio:       safeRatio(ra.Summary.P95, rf.Summary.P95),
		DisabledDetail: detail,
	}, nil
}

// BackgroundSweep measures robustness to non-filesystem cross traffic the
// Flowserver cannot see or schedule (0 = the paper's pure-filesystem
// workload). It probes §4.2's claim that periodically refreshing
// estimates from switch counters keeps the model useful even when it is
// incomplete.
func BackgroundSweep(base Config, loads []float64) (*Series, error) {
	if len(loads) == 0 {
		loads = []float64{0, 0.25, 0.5, 1}
	}
	sw := NewSweep(base)
	for _, load := range loads {
		for _, s := range []Scheme{SchemeMayflower, SchemeSinbadRMayflower, SchemeNearestECMP} {
			cfg := base
			cfg.Scheme = s
			cfg.BackgroundLoad = load
			sw.AddPoint("background-load", load, cfg)
		}
	}
	return assembleSeries(sw, "background-load", base.Locality)
}

// Figure9 is the write-workload figure: completion times as the fraction
// of append jobs grows from a read-only trace to write-heavy mixes.
// Mayflower schedules every write hop (ingest plus the SelectWritePipeline
// replication fan-out); Sinbad-R Mayflower schedules the same hops but
// picks replicas by utilization for its reads; Nearest ECMP is the
// unscheduled baseline whose write hops take hashed paths in static
// replica order.
func Figure9(base Config) (*Series, error) {
	return WriteFractionSweep(base, nil)
}

// WriteFractionSweep runs the Figure 9 sweep over an explicit list of
// write fractions (nil: 0, 0.25, 0.5, 0.75, 1).
func WriteFractionSweep(base Config, fracs []float64) (*Series, error) {
	if len(fracs) == 0 {
		fracs = []float64{0, 0.25, 0.5, 0.75, 1}
	}
	sw := NewSweep(base)
	for _, frac := range fracs {
		for _, s := range []Scheme{SchemeMayflower, SchemeSinbadRMayflower, SchemeNearestECMP} {
			cfg := base
			cfg.Scheme = s
			cfg.WriteFraction = frac
			sw.AddPoint("write-mix", frac, cfg)
		}
	}
	return assembleSeries(sw, "write-mix", base.Locality)
}

// ShardSweep measures selection quality as the flow controller is
// partitioned: Mayflower's full workload re-run with the flowctl plane
// at increasing shard counts (nil: 1, 2, 4). One shard is the exact
// model every other figure runs on; more shards trade global
// knowledge for partitioned state, with cross-pod selections scored
// against gossiped per-link digests of bounded staleness instead of the
// exact remote model. The figure is the cost of that staleness in
// completion time.
func ShardSweep(base Config, shardCounts []int) (*Series, error) {
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 2, 4}
	}
	sw := NewSweep(base)
	for _, n := range shardCounts {
		cfg := base
		cfg.Scheme = SchemeMayflower
		cfg.MultiReplica = false
		cfg.Shards = n
		sw.AddPoint("shards", float64(n), cfg)
	}
	return assembleSeries(sw, "shards", base.Locality)
}

// PollSweep measures Mayflower's sensitivity to the switch stats-polling
// interval.
func PollSweep(base Config, intervals []float64) (*Series, error) {
	if len(intervals) == 0 {
		intervals = []float64{0.25, 0.5, 1, 2, 4}
	}
	sw := NewSweep(base)
	for _, iv := range intervals {
		cfg := base
		cfg.Scheme = SchemeMayflower
		cfg.StatsInterval = iv
		sw.AddPoint("poll-interval", iv, cfg)
	}
	return assembleSeries(sw, "poll-interval", base.Locality)
}
