// Package experiment reproduces the Mayflower paper's simulation
// evaluation (§6): it wires the synthetic workload generator, the five
// replica/path-selection schemes of §6.2, and the flow-level network
// simulator together, and reports the job completion time statistics shown
// in Figures 4 through 7 (plus the §4.3 multi-replica result and the
// ablations called out in DESIGN.md).
package experiment

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"

	"github.com/mayflower-dfs/mayflower/internal/emunet"
	"github.com/mayflower-dfs/mayflower/internal/fabric"
	"github.com/mayflower-dfs/mayflower/internal/flowctl"
	"github.com/mayflower-dfs/mayflower/internal/flowserver"
	"github.com/mayflower-dfs/mayflower/internal/netsim"
	"github.com/mayflower-dfs/mayflower/internal/obs"
	"github.com/mayflower-dfs/mayflower/internal/selection"
	"github.com/mayflower-dfs/mayflower/internal/stats"
	"github.com/mayflower-dfs/mayflower/internal/topology"
	"github.com/mayflower-dfs/mayflower/internal/workload"
)

// BackendKind selects the network substrate an experiment runs on.
type BackendKind int

// The two fabric backends. The zero value is the simulator, so existing
// configurations (and the figure reproductions) are unchanged.
const (
	// BackendNetsim runs the flow-level simulator in virtual time.
	BackendNetsim BackendKind = iota
	// BackendEmunet moves real paced bytes over the emulated network in
	// wall time (optionally compressed by EmuSpeedup).
	BackendEmunet
)

// String names the backend.
func (b BackendKind) String() string {
	switch b {
	case BackendNetsim:
		return "netsim"
	case BackendEmunet:
		return "emunet"
	default:
		return fmt.Sprintf("BackendKind(%d)", int(b))
	}
}

// Scheme is a replica-selection + path-selection combination (§6.2).
type Scheme int

// The five schemes of the replica/path selection comparison, plus the two
// HDFS-based schemes of the prototype comparison (Figure 8).
const (
	// SchemeMayflower is the paper's contribution: joint replica and path
	// selection by the Flowserver.
	SchemeMayflower Scheme = iota + 1
	// SchemeSinbadRMayflower: Sinbad-R replica selection, Mayflower's
	// flow scheduler for the path.
	SchemeSinbadRMayflower
	// SchemeSinbadRECMP: Sinbad-R replica selection, ECMP paths.
	SchemeSinbadRECMP
	// SchemeNearestMayflower: nearest replica, Mayflower path scheduler.
	SchemeNearestMayflower
	// SchemeNearestECMP: nearest replica, ECMP paths ("HDFS with ECMP").
	SchemeNearestECMP
	// SchemeHDFSECMP: HDFS rack-aware replica selection with ECMP.
	SchemeHDFSECMP
	// SchemeHDFSMayflower: HDFS rack-aware replica selection with the
	// Mayflower flow scheduler.
	SchemeHDFSMayflower
)

// String returns the scheme name as the paper's figures label it.
func (s Scheme) String() string {
	switch s {
	case SchemeMayflower:
		return "Mayflower"
	case SchemeSinbadRMayflower:
		return "Sinbad-R Mayflower"
	case SchemeSinbadRECMP:
		return "Sinbad-R ECMP"
	case SchemeNearestMayflower:
		return "Nearest Mayflower"
	case SchemeNearestECMP:
		return "Nearest ECMP"
	case SchemeHDFSECMP:
		return "HDFS-ECMP"
	case SchemeHDFSMayflower:
		return "HDFS-Mayflower"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// AllSchemes lists the five schemes of Figures 4-6 in the paper's bar
// order.
var AllSchemes = []Scheme{
	SchemeMayflower,
	SchemeSinbadRMayflower,
	SchemeSinbadRECMP,
	SchemeNearestMayflower,
	SchemeNearestECMP,
}

// Config parameterizes one simulation run.
type Config struct {
	// Scheme is the replica/path selection combination under test.
	Scheme Scheme
	// Oversubscription is the core-to-rack ratio (8, 16 or 24).
	Oversubscription float64
	// Lambda is the Poisson job arrival rate per server per second.
	Lambda float64
	// NumJobs is the number of read jobs to simulate.
	NumJobs int
	// WarmupJobs are excluded from the reported statistics while the
	// system ramps up.
	WarmupJobs int
	// NumFiles is the catalog size.
	NumFiles int
	// FileBits is the per-job read size (the paper reads 256 MB blocks).
	FileBits float64
	// Replication is the number of replicas per file (3 in the paper).
	Replication int
	// Locality is the staggered client placement distribution.
	Locality workload.Locality
	// StatsInterval is the switch-counter polling period in seconds.
	StatsInterval float64
	// MultiReplica enables §4.3 parallel multi-replica reads
	// (Mayflower scheme only).
	MultiReplica bool
	// Shards is how many flowctl shards the flow controller runs as, for
	// the schemes that run one: 0 and 1 both mean a single shard that
	// models the whole network exactly; N >= 2 partitions the link model
	// by pod across N shards with directory routing and gossiped
	// utilization digests. Schemes without a Flowserver ignore the knob.
	Shards int
	// WriteFraction is the fraction of jobs that are appends instead of
	// reads (0 = the paper's read-only workload, leaving every read
	// figure unchanged). A write job moves the payload from the client
	// to the file's primary and then fans the replication out from the
	// primary to the remaining replicas; under the Mayflower path
	// schemes every hop is registered with the Flowserver, and the
	// replication order comes from SelectWritePipeline's cost estimates
	// (§3.3). Whether a given job writes is a pure hash of (Seed, job
	// ID), so the decision is identical across schemes and worker
	// counts.
	WriteFraction float64
	// DisableImpactTerm / DisableFreeze are the DESIGN.md ablations.
	DisableImpactTerm bool
	DisableFreeze     bool
	// Backend selects the network substrate; the zero value is the
	// flow-level simulator. Results are deterministic only on
	// BackendNetsim — BackendEmunet is subject to real scheduling and
	// pacing jitter, which is what cross-validation quantifies.
	Backend BackendKind
	// Topo overrides the topology (nil: the paper testbed at
	// Oversubscription). Cross-validation uses a CI-sized topology here so
	// emulated runs finish in seconds.
	Topo *topology.Topology
	// EmuSpeedup compresses the emulator's wall clock (BackendEmunet
	// only): the run's fabric timeline is unchanged but elapses
	// EmuSpeedup times faster. <= 0 or unset means real time.
	EmuSpeedup float64
	// BackgroundLoad injects non-filesystem cross traffic the Flowserver
	// cannot see or schedule: random host-to-host transfers over ECMP
	// paths arriving at BackgroundLoad times the job rate, each moving
	// one file-sized payload. The paper's workload studies note that
	// 54-85% of datacenter traffic is filesystem traffic (§2.2) — this
	// knob models the rest and probes §4.2's claim that periodic counter
	// polls keep bandwidth estimates from drifting when the model is
	// incomplete.
	BackgroundLoad float64
	// Seed drives all randomness; equal seeds give identical traces.
	Seed int64
	// Trials repeats every figure cell this many times on independently
	// derived seeds (trial 0 keeps Seed, trial k mixes k in via
	// testutil.DeriveSeed) and merges each cell group's statistics with
	// Student-t confidence intervals over the trial means. 0 or 1 means
	// a single trial, reproducing the historical single-run tables.
	// Run ignores Trials — it is a sweep-level knob consumed by the
	// figure builders.
	Trials int
	// Workers bounds how many sweep cells the figure builders execute
	// concurrently; 0 means GOMAXPROCS. Results and rendered tables are
	// byte-identical for every Workers value (see Sweep).
	Workers int
	// Metrics, when set, receives the run's instrumentation: flowserver
	// counters, fabric reallocation counters, job progress, and the
	// accumulated drift histograms under "experiment.drift.<scheme>".
	// Instrumentation runs either way (atomic-only, off the result path);
	// a nil registry just keeps it private to the run.
	Metrics *obs.Registry
	// Progress, when set, receives a coarse per-scheme progress line as
	// jobs complete (intended for stderr on long sweeps). Nothing is
	// written when nil, keeping figure tables on stdout byte-identical.
	Progress io.Writer
}

// Defaults returns the paper's default parameters for a scheme: the §6.1
// testbed at 8:1 oversubscription, λ = 0.07, 256 MB reads, replication 3,
// rack-heavy locality (0.5, 0.3, 0.2), and 1 s stats polling.
func Defaults(scheme Scheme) Config {
	return Config{
		Scheme:           scheme,
		Oversubscription: 8,
		Lambda:           0.07,
		NumJobs:          1200,
		WarmupJobs:       100,
		NumFiles:         300,
		FileBits:         256 * 8 * 1e6, // 256 MB
		Replication:      3,
		Locality:         workload.LocalityRackHeavy,
		StatsInterval:    1.0,
		Seed:             1,
	}
}

func (c Config) validate() error {
	switch {
	case c.Scheme < SchemeMayflower || c.Scheme > SchemeHDFSMayflower:
		return fmt.Errorf("experiment: unknown scheme %d", int(c.Scheme))
	case c.Backend < BackendNetsim || c.Backend > BackendEmunet:
		return fmt.Errorf("experiment: unknown backend %d", int(c.Backend))
	case c.Topo == nil && c.Oversubscription <= 0:
		return fmt.Errorf("experiment: oversubscription must be > 0, got %g", c.Oversubscription)
	case c.NumJobs <= 0:
		return fmt.Errorf("experiment: NumJobs must be > 0, got %d", c.NumJobs)
	case c.WarmupJobs < 0 || c.WarmupJobs >= c.NumJobs:
		return fmt.Errorf("experiment: WarmupJobs %d out of range for %d jobs", c.WarmupJobs, c.NumJobs)
	case c.StatsInterval <= 0:
		return fmt.Errorf("experiment: StatsInterval must be > 0, got %g", c.StatsInterval)
	case c.Shards < 0:
		return fmt.Errorf("experiment: Shards must be >= 0, got %d", c.Shards)
	case c.WriteFraction < 0 || c.WriteFraction > 1:
		return fmt.Errorf("experiment: WriteFraction must be in [0, 1], got %g", c.WriteFraction)
	case c.Trials < 0:
		return fmt.Errorf("experiment: Trials must be >= 0, got %d", c.Trials)
	case c.Workers < 0:
		return fmt.Errorf("experiment: Workers must be >= 0, got %d", c.Workers)
	}
	return nil
}

// Result is the outcome of one simulation run.
type Result struct {
	Config Config
	// CompletionTimes holds per-job completion times in seconds
	// (arrival to last byte), warmup excluded, in arrival order.
	CompletionTimes []float64
	// SubflowSkews holds, for each job that was split across two
	// replicas, the absolute difference between the subflows' finish
	// times (§4.3 reports this stays under a second).
	SubflowSkews []float64
	// SplitJobs counts jobs served from two replicas in parallel.
	SplitJobs int
	// LocalJobs counts jobs whose chosen replica was co-located with the
	// client (zero network time).
	LocalJobs int
	// WriteJobs counts measured jobs that ran as appends (see
	// Config.WriteFraction).
	WriteJobs int
	// Summary aggregates CompletionTimes.
	Summary stats.Summary
	// Drift is the flow-model drift audit for schemes that ran a
	// Flowserver: every stats-poll tick compared each live flow's
	// bandwidth estimate against the fabric's ground-truth rate. Nil for
	// schemes without a Flowserver.
	Drift *obs.DriftSummary
}

// Run executes one experiment — the whole trace on the configured
// fabric backend — and returns its result.
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	topo := cfg.Topo
	if topo == nil {
		var err error
		topo, err = topology.New(topology.PaperTestbed(cfg.Oversubscription))
		if err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	cat, err := workload.NewCatalog(topo, rng, workload.CatalogConfig{
		NumFiles:    cfg.NumFiles,
		SizeBits:    cfg.FileBits,
		Replication: cfg.Replication,
		Placement:   workload.PlacementPaperEval,
	})
	if err != nil {
		return nil, err
	}
	jobs, err := workload.Generate(topo, rng, cat, workload.TraceConfig{
		LambdaPerServer: cfg.Lambda,
		NumJobs:         cfg.NumJobs,
		ZipfSkew:        1.1,
		Locality:        cfg.Locality,
	})
	if err != nil {
		return nil, err
	}

	var fab fabric.Backend
	switch cfg.Backend {
	case BackendNetsim:
		fab = netsim.New(topo)
	case BackendEmunet:
		fab = emunet.NewFabric(emunet.NewWithClock(topo, fabric.NewScaledClock(cfg.EmuSpeedup)))
	}

	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	// Both backends expose their reallocation counters; the interface
	// assertion keeps fabric.Backend itself observability-free.
	if am, ok := fab.(interface{ AttachMetrics(*obs.Registry) }); ok {
		am.AttachMetrics(reg)
	}

	r := &runner{
		cfg:   cfg,
		topo:  topo,
		fab:   fab,
		rng:   rng,
		cat:   cat,
		reg:   reg,
		audit: obs.NewDriftAuditor(),
		res:   &Result{Config: cfg},
	}
	r.jobsStarted = reg.Counter("experiment.jobs_started")
	r.jobsCompleted = reg.Counter("experiment.jobs_completed")
	r.jobsSkipped = reg.Counter("experiment.jobs_skipped")
	r.jobsLocal = reg.Counter("experiment.jobs_local")
	r.jobsSplit = reg.Counter("experiment.jobs_split")
	r.jobsWrite = reg.Counter("experiment.jobs_write")
	if err := r.setupPolicies(); err != nil {
		return nil, err
	}
	r.scheduleJobs(jobs)
	if cfg.BackgroundLoad > 0 && len(jobs) > 0 {
		r.scheduleBackground(jobs[len(jobs)-1].Time)
	}
	r.schedulePolling()
	if err := r.fab.Run(); err != nil {
		return nil, err
	}

	if got, want := len(r.res.CompletionTimes)+r.skipped, cfg.NumJobs-cfg.WarmupJobs; got != want {
		return nil, fmt.Errorf("experiment: recorded %d of %d measured jobs", got, want)
	}
	r.res.Summary = stats.Summarize(r.res.CompletionTimes)
	// Jobs that started but neither completed nor were skipped stalled in
	// the fabric; with a healthy run this gauge reads zero.
	reg.Gauge("experiment.jobs_stalled").Set(
		r.jobsStarted.Value() - r.jobsCompleted.Value() - r.jobsSkipped.Value())
	if r.fs != nil {
		d := r.audit.Summary()
		c := r.fs.Counters()
		d.FreezeHits = c.FreezeHits
		d.FreezeExpirations = c.FreezeExpirations
		d.PollDropsDT = c.PollDropsDT
		d.PollDropsRegress = c.PollDropsRegress
		d.PollDropsSkew = c.PollDropsSkewFuture + c.PollDropsSkewPast
		r.res.Drift = &d
		r.audit.MergeInto(reg, "experiment.drift."+schemeSlug(cfg.Scheme))
	}
	return r.res, nil
}

// schemeSlug turns a scheme's display name into a metric-name segment
// ("Sinbad-R Mayflower" → "sinbad-r-mayflower").
func schemeSlug(s Scheme) string {
	return strings.ReplaceAll(strings.ToLower(s.String()), " ", "-")
}

// runner carries the per-run state. All of its callbacks run as fabric
// driver callbacks, which the backend serializes, so the runner needs no
// locking on either substrate.
type runner struct {
	cfg  Config
	topo *topology.Topology
	fab  fabric.Backend
	rng  *rand.Rand
	cat  *workload.Catalog
	res  *Result

	// Policy components; which are non-nil depends on the scheme. fs is
	// the flow controller.
	fs      *flowctl.Plane
	nearest *selection.Nearest
	hdfs    *selection.HDFSRackAware
	sinbad  *selection.SinbadR
	ecmp    *selection.ECMP

	// Sinbad-R's (stale) utilization snapshot, refreshed every poll.
	util     map[topology.LinkID]float64
	lastPoll float64
	prevBits []float64

	// Mayflower flow bookkeeping: Flowserver id → fabric flow id.
	tracked map[flowserver.FlowID]fabric.FlowID

	// Observability: the run's registry, the per-run drift auditor, and
	// the job-progress counters (registry-owned, atomic).
	reg           *obs.Registry
	audit         *obs.DriftAuditor
	jobsStarted   *obs.Counter
	jobsCompleted *obs.Counter
	jobsSkipped   *obs.Counter
	jobsLocal     *obs.Counter
	jobsSplit     *obs.Counter
	jobsWrite     *obs.Counter
	completed     int // jobs finished, for the progress line

	skipped int // failed selections (should stay zero)
	polling bool
}

func (r *runner) setupPolicies() error {
	cfg := r.cfg
	usesFlowserver := false
	switch cfg.Scheme {
	case SchemeMayflower, SchemeSinbadRMayflower, SchemeNearestMayflower, SchemeHDFSMayflower:
		usesFlowserver = true
	}
	if usesFlowserver {
		plane, err := flowctl.NewPlane(r.topo, flowctl.Options{
			Shards:            max(1, cfg.Shards),
			MultiReplica:      cfg.MultiReplica && cfg.Scheme == SchemeMayflower,
			DisableImpactTerm: cfg.DisableImpactTerm,
			DisableFreeze:     cfg.DisableFreeze,
			Now:               r.fab.Now,
			Metrics:           r.reg,
		})
		if err != nil {
			return err
		}
		r.fs = plane
		r.tracked = make(map[flowserver.FlowID]fabric.FlowID)
		r.polling = true
	}
	switch cfg.Scheme {
	case SchemeNearestMayflower, SchemeNearestECMP:
		r.nearest = selection.NewNearest(r.topo, r.rng)
	case SchemeHDFSECMP, SchemeHDFSMayflower:
		r.hdfs = selection.NewHDFSRackAware(r.topo, r.rng)
	case SchemeSinbadRMayflower, SchemeSinbadRECMP:
		r.util = make(map[topology.LinkID]float64)
		r.sinbad = selection.NewSinbadR(r.topo, r.rng, r.util)
		r.prevBits = make([]float64, r.topo.NumLinks())
		r.polling = true
	}
	switch cfg.Scheme {
	case SchemeSinbadRECMP, SchemeNearestECMP, SchemeHDFSECMP:
		r.ecmp = selection.NewECMP(r.topo)
	}
	return nil
}

func (r *runner) scheduleJobs(jobs []workload.Job) {
	for _, job := range jobs {
		job := job
		r.fab.Schedule(job.Time, func() { r.startJob(job) })
	}
}

// scheduleBackground injects cross traffic until the trace ends: random
// host pairs move file-sized payloads over ECMP paths. These flows never
// touch the Flowserver's model or Sinbad-R's visibility beyond what the
// link counters naturally report.
func (r *runner) scheduleBackground(horizon float64) {
	bgRng := rand.New(rand.NewSource(r.cfg.Seed + 0x6267)) // independent stream
	bgECMP := selection.NewECMP(r.topo)
	hosts := r.topo.Hosts()
	rate := r.cfg.Lambda * float64(len(hosts)) * r.cfg.BackgroundLoad
	var now float64
	for key := uint64(0); ; key++ {
		now += bgRng.ExpFloat64() / rate
		if now > horizon {
			return
		}
		src := hosts[bgRng.Intn(len(hosts))]
		dst := hosts[bgRng.Intn(len(hosts))]
		if src == dst {
			continue
		}
		path, err := bgECMP.SelectPath(src, dst, key)
		if err != nil {
			continue
		}
		bits := r.cfg.FileBits
		start := now
		r.fab.Schedule(start, func() {
			r.fab.StartFlow(fabric.FlowConfig{Links: path, Bits: bits})
		})
	}
}

// schedulePolling installs the periodic stats collection loop: switch
// counters feed the Flowserver's bandwidth model and Sinbad-R's
// utilization snapshot. Polling pauses while the network is idle and is
// restarted by ensurePolling when new flows appear.
func (r *runner) schedulePolling() {
	if !r.polling {
		return
	}
	r.fab.Schedule(r.cfg.StatsInterval, r.pollTick)
}

// ensurePolling restarts the polling loop after an idle pause.
func (r *runner) ensurePolling() {
	if r.polling || (r.fs == nil && r.sinbad == nil) {
		return
	}
	r.polling = true
	r.fab.Schedule(r.fab.Now()+r.cfg.StatsInterval, r.pollTick)
}

// pollTick performs one stats collection cycle and re-arms itself while
// flows remain in the network.
func (r *runner) pollTick() {
	now := r.fab.Now()
	if r.fs != nil {
		r.fs.PollFrom(now, r.flowStats())
		// Drift audit: compare each live flow's post-poll estimate
		// against the fabric's ground-truth fair-share rate. Read-only
		// against both layers — no RNG, no model writes — so enabling it
		// cannot perturb the run.
		for fsID, fabID := range r.tracked {
			est, ok := r.fs.EstimatedBW(fsID)
			if !ok {
				continue
			}
			r.audit.Record(est, r.fab.FlowRate(fabID))
		}
	}
	if r.sinbad != nil {
		dt := now - r.lastPoll
		if dt > 0 {
			for id := 0; id < r.topo.NumLinks(); id++ {
				lid := topology.LinkID(id)
				bits := r.fab.LinkTransferred(lid)
				r.util[lid] = (bits - r.prevBits[id]) / dt
				r.prevBits[id] = bits
			}
		}
		r.lastPoll = now
	}
	if r.fab.NumActiveFlows() > 0 {
		r.fab.Schedule(now+r.cfg.StatsInterval, r.pollTick)
	} else {
		r.polling = false
	}
}

// flowStats is one poll cycle's batch: the runner reads each tracked
// flow's byte counter straight off the fabric, standing in for the
// testbed's edge-switch stats requests.
func (r *runner) flowStats() []flowserver.FlowStat {
	batch := make([]flowserver.FlowStat, 0, len(r.tracked))
	for fsID, fabID := range r.tracked {
		batch = append(batch, flowserver.FlowStat{
			ID:              fsID,
			TransferredBits: r.fab.FlowTransferred(fabID),
		})
	}
	return batch
}

// startJob performs replica/path selection for one job and launches its
// flow(s) on the fabric.
func (r *runner) startJob(job workload.Job) {
	if r.isWriteJob(job.ID) {
		r.startWriteJob(job)
		return
	}
	file := &r.cat.Files[job.FileIndex]
	measured := job.ID >= r.cfg.WarmupJobs
	r.jobsStarted.Inc()
	defer r.ensurePolling()

	record := func(end float64) {
		r.jobsCompleted.Inc()
		r.completed++
		r.reportProgress()
		if measured {
			r.res.CompletionTimes = append(r.res.CompletionTimes, end-job.Time)
		}
	}

	switch r.cfg.Scheme {
	case SchemeMayflower:
		as, err := r.fs.SelectReplicaAndPath(flowserver.Request{
			Client:   job.Client,
			Replicas: file.Replicas,
			Bits:     file.SizeBits,
		})
		if err != nil {
			r.skip(measured)
			return
		}
		r.launchAssignments(job, as, record, measured)

	case SchemeSinbadRMayflower, SchemeNearestMayflower, SchemeHDFSMayflower:
		replica, err := r.selectReplica(job.Client, file.Replicas)
		if err != nil {
			r.skip(measured)
			return
		}
		if replica == job.Client {
			r.localJob(record, measured)
			return
		}
		a, err := r.fs.SelectPath(job.Client, replica, file.SizeBits)
		if err != nil {
			r.skip(measured)
			return
		}
		r.launchAssignments(job, []flowserver.Assignment{a}, record, measured)

	case SchemeSinbadRECMP, SchemeNearestECMP, SchemeHDFSECMP:
		replica, err := r.selectReplica(job.Client, file.Replicas)
		if err != nil {
			r.skip(measured)
			return
		}
		if replica == job.Client {
			r.localJob(record, measured)
			return
		}
		path, err := r.ecmp.SelectPath(replica, job.Client, uint64(job.ID))
		if err != nil {
			r.skip(measured)
			return
		}
		r.fab.StartFlow(fabric.FlowConfig{
			Links:      path,
			Bits:       file.SizeBits,
			OnComplete: record,
		})
	}
}

func (r *runner) selectReplica(client topology.NodeID, replicas []topology.NodeID) (topology.NodeID, error) {
	switch {
	case r.nearest != nil:
		return r.nearest.SelectReplica(client, replicas)
	case r.hdfs != nil:
		return r.hdfs.SelectReplica(client, replicas)
	case r.sinbad != nil:
		return r.sinbad.SelectReplica(client, replicas)
	default:
		return 0, fmt.Errorf("experiment: no replica selector for scheme %v", r.cfg.Scheme)
	}
}

// launchAssignments starts one simulator flow per Flowserver assignment
// and completes the job when the last subflow finishes.
func (r *runner) launchAssignments(job workload.Job, as []flowserver.Assignment, record func(float64), measured bool) {
	if len(as) == 1 && as[0].Local() {
		r.localJob(record, measured)
		return
	}
	if len(as) > 1 {
		r.jobsSplit.Inc()
		if measured {
			r.res.SplitJobs++
		}
	}
	pending := len(as)
	ends := make([]float64, 0, len(as))
	for _, a := range as {
		a := a
		simID := r.fab.StartFlow(fabric.FlowConfig{
			Links: a.Path,
			Bits:  a.Bits,
			OnComplete: func(end float64) {
				delete(r.tracked, a.FlowID)
				r.fs.FlowFinished(a.FlowID)
				pending--
				ends = append(ends, end)
				if pending == 0 {
					record(end)
					if len(ends) == 2 && measured {
						r.res.SubflowSkews = append(r.res.SubflowSkews, math.Abs(ends[0]-ends[1]))
					}
				}
			},
		})
		r.tracked[a.FlowID] = simID
	}
}

// localJob records a read served from a co-located replica: no network
// transfer, so it completes immediately.
func (r *runner) localJob(record func(float64), measured bool) {
	r.jobsLocal.Inc()
	if measured {
		r.res.LocalJobs++
	}
	record(r.fab.Now())
}

func (r *runner) skip(measured bool) {
	r.jobsSkipped.Inc()
	if measured {
		r.skipped++
	}
}

// reportProgress emits the per-scheme progress line every 100 completed
// jobs (and on the last one) when Config.Progress is set.
func (r *runner) reportProgress() {
	if r.cfg.Progress == nil {
		return
	}
	if r.completed%100 == 0 || r.completed == r.cfg.NumJobs {
		fmt.Fprintf(r.cfg.Progress, "%s [%s]: %d/%d jobs\n",
			r.cfg.Scheme, r.cfg.Backend, r.completed, r.cfg.NumJobs)
	}
}
