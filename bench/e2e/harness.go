// Package e2e is the end-to-end benchmark of the live testbed: one
// process boots a real internal/testbed cluster (nameserver, monolithic
// Flowserver, sixteen dataservers, internal/rpc sessions, the emunet
// fabric on the wall clock), drives only the public client API against
// it, checks every byte that comes back, and reports what a user of the
// filesystem would see plus, in a separate traced run, where each layer
// spent the time. Nothing outside bench/ is touched; layers are measured
// from outside, through the seams the system already exposes
// (client.Options.DialData/DialControl/Metrics, ClusterConfig.Metrics,
// and each layer's public client stub).
package e2e

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/client"
	"github.com/mayflower-dfs/mayflower/internal/nameserver"
	"github.com/mayflower-dfs/mayflower/internal/obs"
	"github.com/mayflower-dfs/mayflower/internal/stats"
	"github.com/mayflower-dfs/mayflower/internal/testbed"
	"github.com/mayflower-dfs/mayflower/internal/topology"
)

// Options configures one run of one workload.
type Options struct {
	// Workload names one of Workloads.
	Workload string
	// Seed is the only source of randomness: placement, offsets,
	// popularity draws, the arrival trace and file contents all derive
	// from it.
	Seed int64
	// Window is how long the run measures.
	Window time.Duration
	// Trace selects the traced run: operations are recorded as span
	// trees, the layer probes run after the window, and Result.Metrics
	// holds the per-layer metrics instead of the end-to-end ones.
	Trace bool
	// WorkDir is where clusters keep chunk stores and the nameserver
	// database; the system temp directory if empty. Everything created
	// under it is removed again.
	WorkDir string
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

// Setups is how many times a run boots and fills a cluster; setup_s is
// the median, and the last cluster is the one measured.
const Setups = 3

// OpRecord is one issued primary operation, for the determinism check.
type OpRecord struct {
	File   int
	Offset int64
	Length int64
}

// Result is the outcome of one run.
type Result struct {
	Workload  string
	Seed      int64
	Correct   bool
	Attempted int
	Failed    int
	// Metrics holds the end-to-end metrics of an untraced run or the
	// per-layer metrics of a traced one.
	Metrics map[string]Value
	// OpLog is the primary driver's issued operation sequence; two runs
	// with one seed agree on every common prefix of it.
	OpLog []OpRecord
	// Trace is the recorded span data of a traced run.
	Trace *TraceDump
	// Warnings are validity notes that do not fail the run (a late load
	// generator, a growing backlog).
	Warnings []string
}

// OpLogHash hashes the first n issued operations (FNV-1a over their
// fields), the fingerprint the determinism check compares.
func (r *Result) OpLogHash(n int) string {
	h := fnv.New64a()
	var buf [24]byte
	for _, op := range r.OpLog[:n] {
		binary.LittleEndian.PutUint64(buf[0:], uint64(op.File))
		binary.LittleEndian.PutUint64(buf[8:], uint64(op.Offset))
		binary.LittleEndian.PutUint64(buf[16:], uint64(op.Length))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TraceDump is what a traced run writes out: per span name the median
// inclusive and self time over the window, the run's per-layer metrics,
// and the first operations' full trees. Times are calibrated like the
// end-to-end metrics (calibrate.go), except on fabric_contended.
type TraceDump struct {
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Ops      int                  `json:"traced_ops"`
	OpP50Us  float64              `json:"op_p50_us"`
	Spans    map[string]SpanStats `json:"spans"`
	PerLayer map[string]float64   `json:"per_layer"`
	Sample   []*Span              `json:"sample"`
}

// SpanStats aggregates one span name over the traced operations of the
// window. Self times are per operation (summed over same-named spans of
// one tree), so MeanSelfUs over all names adds up to the mean op.
type SpanStats struct {
	Count      int     `json:"count"`
	P50Us      float64 `json:"p50_us"`
	P50SelfUs  float64 `json:"p50_self_us"`
	MeanSelfUs float64 `json:"mean_self_us"`
}

// sample is one finished operation.
type sample struct {
	start time.Time
	lat   time.Duration
	late  time.Duration // open loops: how long after its due time the op was sent
	bytes int64
	ok    bool
	trace *opTrace
	// speed is the calibration in force when the op started (0: the
	// recorder does not calibrate).
	speed time.Duration
	k     [3]time.Duration
}

// recorder collects the samples and the op log of one driver.
type recorder struct {
	tr         *tracer // nil in an untraced run
	attributed bool    // control traffic may be attributed to this driver's ops
	// cal, when set, makes the recorder re-time the reference operation
	// between operations every calEvery; only a single closed-loop driver
	// may (the reference must not run beside an operation).
	cal    *calibrator
	calAt  time.Time
	speed  time.Duration
	calErr error

	mu      sync.Mutex
	samples []*sample
	opLog   []OpRecord
	n       int
}

// timed runs fn as one operation, measured from `from` (the due time in
// an open loop, so a stall's queueing counts). In a traced run every
// other operation is traced; the rest run bare so the run can report what
// tracing costs.
func (r *recorder) timed(from time.Time, fn func(ctx context.Context) error) (*sample, error) {
	r.mu.Lock()
	traced := r.tr != nil && r.n%2 == 0
	r.n++
	r.mu.Unlock()

	if r.cal != nil && time.Since(r.calAt) >= calEvery {
		speed, err := r.cal.measure()
		if err != nil && r.calErr == nil {
			r.calErr = err
		}
		r.speed = speed
		r.calAt = time.Now()
		if from.Before(r.calAt) {
			from = r.calAt // a closed loop's op starts now, after the reference
		}
	}
	s := &sample{start: from, speed: r.speed}
	ctx := context.Background()
	if traced {
		s.trace = r.tr.begin(r.attributed)
		ctx = withOp(ctx, s.trace)
	}
	s.late = time.Since(from)
	err := fn(ctx)
	s.lat = time.Since(from)
	if traced {
		r.tr.finish(s.trace)
	}
	r.mu.Lock()
	r.samples = append(r.samples, s)
	r.mu.Unlock()
	return s, err
}

func (r *recorder) logOp(file int, off, length int64) {
	r.mu.Lock()
	r.opLog = append(r.opLog, OpRecord{File: file, Offset: off, Length: length})
	r.mu.Unlock()
}

// within returns the samples that started in [from, to).
func (r *recorder) within(from, to time.Time) []*sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*sample
	for _, s := range r.samples {
		if !s.start.Before(from) && s.start.Before(to) {
			out = append(out, s)
		}
	}
	return out
}

// file is one catalog file: its name, content key, replica hosts, and
// (for files no workload grows) the bytes it holds.
type file struct {
	name     string
	key      uint64
	replicas []topology.NodeID
	content  []byte
}

// env is the state of one run.
type env struct {
	opts Options
	spec *Workload

	cluster    *testbed.Cluster
	workDir    string
	clusterReg *obs.Registry
	clientRegs []*obs.Registry
	tr         *tracer
	cal        *calibrator

	clientHost topology.NodeID
	files      []file
	createMs   []float64

	primary *recorder
	beside  *recorder
}

func (e *env) logf(format string, args ...any) {
	if e.opts.Log != nil {
		fmt.Fprintf(e.opts.Log, format+"\n", args...)
	}
}

// newClient builds a client on host with its own metrics registry (the
// client's counters register under fixed names, so clients sharing a
// registry would hide each other) and, when traced in a traced run, the
// harness's dialers.
func (e *env) newClient(host topology.NodeID, traced bool) (*client.Client, error) {
	reg := obs.NewRegistry()
	e.clientRegs = append(e.clientRegs, reg)
	return e.cluster.NewClient(host, func(o *client.Options) {
		o.Metrics = reg
		if traced && e.tr != nil {
			o.DialData = e.tr.dialData
			o.DialControl = e.tr.dialControl
		}
	})
}

// boot starts a cluster for the workload and creates and fills its
// catalog: everything setup_s covers. It returns how long that took on
// the wall clock and in reference-machine time (set-up is CPU, kernel and
// memory work on every workload: the fill is an append stream).
func (e *env) boot(seq int) (wall, calibrated time.Duration, err error) {
	dir := e.opts.WorkDir
	if dir == "" {
		dir = os.TempDir()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, 0, err
	}
	work, err := os.MkdirTemp(dir, fmt.Sprintf("e2e-%s-%d-*", e.spec.Name, seq))
	if err != nil {
		return 0, 0, err
	}
	e.workDir = work
	e.clusterReg = obs.NewRegistry()
	e.clientRegs = nil
	e.createMs = e.createMs[:0]

	clock := calClock{cal: e.cal}
	if err := clock.start(); err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	cluster, err := testbed.NewCluster(testbed.ClusterConfig{
		Mode:    testbed.ModeMayflower,
		Topo:    e.spec.Topo(),
		WorkDir: work,
		Seed:    e.opts.Seed,
		Metrics: e.clusterReg,
	})
	if err != nil {
		os.RemoveAll(work)
		return 0, 0, fmt.Errorf("boot cluster: %w", err)
	}
	e.cluster = cluster
	if err := e.fill(&clock); err != nil {
		e.shutdown()
		return 0, 0, err
	}
	wall = time.Since(t0)
	if err := clock.lap(true); err != nil {
		return 0, 0, err
	}
	return wall, clock.total, nil
}

// fill creates every catalog file with its replicas pinned and appends
// its content through a client on the primary's host.
func (e *env) fill(clock *calClock) error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for i := range e.files {
		f := &e.files[i]
		cl, err := e.cluster.Client(f.replicas[0])
		if err != nil {
			return err
		}
		servers := make([]string, len(f.replicas))
		for j, h := range f.replicas {
			servers[j] = e.cluster.ServerID(h)
		}
		t0 := time.Now()
		_, err = cl.Create(ctx, f.name, nameserver.CreateOptions{
			ChunkSize:         e.spec.ChunkBytes,
			PreferredReplicas: servers,
		})
		if err != nil {
			return fmt.Errorf("create %s: %w", f.name, err)
		}
		e.createMs = append(e.createMs, ms(time.Since(t0)))
		content := f.content
		if content == nil {
			content = make([]byte, e.spec.FileBytes)
			fillPattern(content, f.key, 0)
		}
		if _, err := cl.Append(ctx, f.name, content); err != nil {
			return fmt.Errorf("fill %s: %w", f.name, err)
		}
		if err := clock.lap(false); err != nil {
			return err
		}
	}
	return nil
}

func (e *env) shutdown() {
	if e.cluster != nil {
		e.cluster.Close()
		e.cluster = nil
	}
	if e.workDir != "" {
		os.RemoveAll(e.workDir)
		e.workDir = ""
	}
}

// counters is one snapshot of everything the run differences over the
// window.
type counters struct {
	at     time.Time
	mem    runtime.MemStats
	cpu    time.Duration
	rssMax float64 // MB
	obs    map[string]int64
}

func (e *env) snapshot() counters {
	c := counters{obs: e.obsTotals()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		c.rssMax = float64(ru.Maxrss) / 1024
	}
	runtime.ReadMemStats(&c.mem)
	c.at = time.Now()
	return c
}

// obsTotals sums the counters of the cluster's and every client's
// registry. Per-peer and per-dataserver names fold into one total each,
// keyed by what the per-layer metrics ask for.
func (e *env) obsTotals() map[string]int64 {
	total := make(map[string]int64)
	regs := append([]*obs.Registry{e.clusterReg}, e.clientRegs...)
	for _, reg := range regs {
		for name, v := range reg.Snapshot().Counters {
			total[name] += v
			switch {
			case strings.HasSuffix(name, ".retries"):
				total["rpc.retries"] += v
			case strings.HasSuffix(name, ".reconnects"):
				total["rpc.reconnects"] += v
			case strings.HasPrefix(name, "client.rpc.peer.") && strings.HasSuffix(name, ".calls"):
				total["client.ctl_rpcs"] += v
			case strings.HasPrefix(name, "dataserver.") && strings.HasSuffix(name, ".relays_scheduled"):
				total["dataserver.relays_scheduled"] += v
			case strings.HasPrefix(name, "dataserver.") && strings.HasSuffix(name, ".append_dedups"):
				total["dataserver.append_dedups"] += v
			}
		}
	}
	return total
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// Run executes one workload once.
func Run(opts Options) (*Result, error) {
	spec := FindWorkload(opts.Workload)
	if spec == nil {
		return nil, fmt.Errorf("e2e: unknown workload %q", opts.Workload)
	}
	if opts.Window <= 0 {
		return nil, errors.New("e2e: Window must be positive")
	}
	// One P for the whole in-process cluster. Every workload here is a
	// chain of goroutine hand-offs across loopback sockets; with two Ps on
	// a two-CPU sandbox each hand-off may or may not cross a thread, and
	// the same code measured 0.16-0.33 ms per 4 KiB read from run to run.
	// On one P the hand-offs are deterministic and the same read measures
	// 0.136-0.142 ms. The price: nothing here can show a gain from
	// parallelism across cores (bench/README.md says what that excludes).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.Close()
	e := &env{opts: opts, spec: spec, cal: cal}
	defer e.shutdown()

	// Inputs first, outside every timed region: the topology decides
	// placement, the seed decides the rest.
	topo, err := topology.New(spec.Topo())
	if err != nil {
		return nil, err
	}
	if err := spec.plan(e, topo); err != nil {
		return nil, err
	}
	if !spec.Grows {
		e.materialize()
	}

	// Set-up, several times over; the last cluster stays up.
	var setups []float64
	for k := 0; k < Setups; k++ {
		e.shutdown()
		wall, calibrated, err := e.boot(k)
		if err != nil {
			return nil, err
		}
		setups = append(setups, calibrated.Seconds())
		e.logf("setup %d/%d: %.3fs wall, %.3fs at reference speed", k+1, Setups, wall.Seconds(), calibrated.Seconds())
	}
	if opts.Trace {
		e.tr = newTracer()
		e.tr.layerOf[e.cluster.NameserverAddr()] = "nameserver"
		e.tr.layerOf[e.cluster.FlowserverAddr()] = "flowserver"
		for _, h := range e.cluster.Topo.Hosts() {
			ctl, _, err := e.cluster.DataserverAddrs(e.cluster.Topo.Node(h).Name)
			if err != nil {
				return nil, err
			}
			e.tr.layerOf[ctl] = "dataserver"
		}
	}
	e.primary = &recorder{tr: e.tr, attributed: spec.SingleDriver}
	if spec.SingleDriver {
		e.primary.cal = e.cal
	}
	e.beside = &recorder{}

	drv, err := spec.start(e)
	if err != nil {
		return nil, err
	}

	// Warm-up, then the window. The harness goroutine only marks the
	// phase boundaries; the drivers run straight through them.
	warm := opts.Window / 8
	if warm > 2*time.Second {
		warm = 2 * time.Second
	}
	begin := time.Now()
	winStart := begin.Add(warm)
	winEnd := winStart.Add(opts.Window)
	done := make(chan error, 1)
	go func() { done <- drv.drive(begin, winEnd) }()

	time.Sleep(time.Until(winStart))
	runtime.GC()
	a := e.snapshot()
	time.Sleep(time.Until(winEnd))
	b := e.snapshot()
	if err := <-done; err != nil {
		return nil, err
	}
	if err := e.primary.calErr; err != nil {
		return nil, err
	}
	drained := time.Since(winEnd)
	e.logf("window %.2fs done, drained in %.2fs", b.at.Sub(a.at).Seconds(), drained.Seconds())

	res := &Result{Workload: spec.Name, Seed: opts.Seed, OpLog: e.primary.opLog}
	ops := e.primary.within(a.at, b.at)
	res.Attempted = len(ops)
	var okOps []*sample
	for _, s := range ops {
		if s.ok {
			okOps = append(okOps, s)
		}
	}
	res.Failed = len(ops) - len(okOps)
	besideOps := e.beside.within(a.at, b.at)
	for _, s := range besideOps {
		res.Attempted++
		if !s.ok {
			res.Failed++
		}
	}
	if len(okOps) == 0 {
		return nil, errors.New("e2e: no operation completed inside the window")
	}

	// Whatever the workload checks once the load has stopped (files that
	// grew hold exactly what was acknowledged).
	finalOK := true
	if v, ok := drv.(verifier); ok {
		if finalOK, err = v.verify(); err != nil {
			return nil, err
		}
	}
	res.Correct = finalOK && res.Failed == 0

	if drained > 5*time.Second {
		res.Warnings = append(res.Warnings, fmt.Sprintf("backlog: drivers needed %.1fs after the window to drain", drained.Seconds()))
	}

	got := make(map[string]float64)
	if !opts.Trace {
		e.endToEnd(got, a, b, okOps, median(setups))
	} else {
		// The probes are CPU, kernel and memory work on every workload,
		// so their times are calibrated everywhere.
		clock := calClock{cal: e.cal}
		if err := clock.start(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := e.probe(got); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		wall := time.Since(t0)
		if err := clock.lap(true); err != nil {
			return nil, err
		}
		for _, m := range PerLayer {
			if v, ok := got[m.Name]; ok && (m.Unit == "us" || m.Unit == "ms") {
				got[m.Name] = v * float64(clock.total) / float64(wall)
			}
		}
		e.perLayer(got, res, a, b, okOps, besideOps)
	}

	// A fault-free run must not have used any of the fault paths; if it
	// did, the numbers describe something other than the workload.
	end := e.obsTotals()
	for _, name := range []string{"client.reads_degraded", "rpc.retries", "rpc.reconnects"} {
		if end[name] != 0 {
			return nil, fmt.Errorf("e2e: %s = %d on a fault-free run; refusing to report", name, end[name])
		}
	}

	// Drift audit totals land in the registry when the cluster closes.
	e.shutdown()
	want := EndToEnd
	if opts.Trace {
		want = PerLayer
		got["flowserver.drift_mean"] = e.clusterReg.Snapshot().Histograms["testbed.drift.rel_err"].Mean
		res.Trace.PerLayer = got
	}
	vals, missing := values(want, got)
	if len(missing) > 0 {
		return nil, fmt.Errorf("e2e: metrics not computed: %v", missing)
	}
	res.Metrics = vals
	return res, nil
}

func latenciesMs(ss []*sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(norm(s.lat, s.speed))
	}
	return out
}

// steadySlices is how many equal stretches a single-driver window is cut
// into; see steady.
const steadySlices = 10

// steady estimates the window's p50 and p95 latency and its throughput.
//
// For an open loop the whole window is one population: its latency
// distribution is the arrival trace meeting the fabric, and that is the
// signal.
//
// A single closed-loop driver measures CPU path length, and there the
// sandbox is the noise. Calibration cancels what lasts longer than
// calEvery; what is left are stretches of a second or so where the
// machine stalls (bench/README.md shows some), and interference of that
// kind only ever adds time. So the window is cut into steadySlices stretches, each yields its
// own p50, p95 and throughput, and the reported value is the quartile on
// the quiet side — the first for latencies, the third for throughput. A
// real slowdown moves every stretch and so moves the quartile one for
// one; a disturbance has to cover three quarters of the window to show.
// What this cannot see is a stall rarer than one per stretch; the tail
// inside each stretch (p95) and the traced run's e2e.op_p99_ms still can.
func (e *env) steady(ok []*sample, from, to time.Time) (p50, p95, mbps float64) {
	if !e.spec.SingleDriver {
		lat := latenciesMs(ok)
		var bytes int64
		for _, s := range ok {
			bytes += s.bytes
		}
		return stats.Percentile(lat, 50), stats.Percentile(lat, 95), float64(bytes) / 1e6 / to.Sub(from).Seconds()
	}
	width := to.Sub(from) / steadySlices
	var p50s, p95s, rates []float64
	for k := 0; k < steadySlices; k++ {
		lo := from.Add(time.Duration(k) * width)
		hi := lo.Add(width)
		var in []*sample
		var bytes int64
		var speed []float64
		for _, s := range ok {
			if !s.start.Before(lo) && s.start.Before(hi) {
				in = append(in, s)
				bytes += s.bytes
				speed = append(speed, float64(s.speed))
			}
		}
		if len(in) == 0 {
			continue
		}
		lat := latenciesMs(in)
		p50s = append(p50s, stats.Percentile(lat, 50))
		p95s = append(p95s, stats.Percentile(lat, 95))
		rates = append(rates, float64(bytes)/1e6/norm(width, time.Duration(median(speed))).Seconds())
	}
	return stats.Percentile(p50s, 25), stats.Percentile(p95s, 25), stats.Percentile(rates, 75)
}

// endToEnd computes the six gated metrics of the window [a, b).
func (e *env) endToEnd(got map[string]float64, a, b counters, ok []*sample, setup float64) {
	n := float64(len(ok))
	got["op_p50_ms"], got["op_p95_ms"], got["payload_MBps"] = e.steady(ok, a.at, b.at)
	got["allocs_per_op"] = float64(b.mem.Mallocs-a.mem.Mallocs) / n
	got["alloc_KB_per_op"] = float64(b.mem.TotalAlloc-a.mem.TotalAlloc) / 1024 / n
	got["setup_s"] = setup

	raw := make([]float64, len(ok))
	speed := make([]float64, len(ok))
	for i, s := range ok {
		raw[i] = ms(s.lat)
		speed[i] = us(s.speed)
	}
	e.logf("whole window, wall clock: op p50 %.4f ms, p95 %.4f ms over %d ops; reference op p50 %.0f us (calRef %.0f)",
		stats.Percentile(raw, 50), stats.Percentile(raw, 95), len(ok), median(speed), us(calRef))
}

// perLayer computes the span- and counter-derived layer metrics of the
// window [a, b) and assembles the trace dump; the probe-derived ones are
// already in got.
func (e *env) perLayer(got map[string]float64, res *Result, a, b counters, ok, beside []*sample) {
	n := float64(len(ok))
	window := b.at.Sub(a.at).Seconds()
	delta := func(name string) float64 { return float64(b.obs[name] - a.obs[name]) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	// Spans.
	var traced, bare []float64
	perName := make(map[string][]float64)   // inclusive duration of every span
	selfPerOp := make(map[string][]float64) // per op, self time summed by name
	dump := &TraceDump{Workload: e.spec.Name, Seed: e.opts.Seed, Spans: make(map[string]SpanStats)}
	var streamMBps []float64
	for _, s := range ok {
		if s.trace == nil {
			bare = append(bare, ms(norm(s.lat, s.speed)))
			continue
		}
		traced = append(traced, ms(norm(s.lat, s.speed)))
		root := e.tr.tree(s.trace, e.spec.OpKind, s.speed)
		self := make(map[string]float64)
		root.Walk(func(sp *Span) {
			perName[sp.Name] = append(perName[sp.Name], sp.DurUs())
			self[sp.Name] += sp.SelfUs
			if sp.Name == "dataserver.transfer" && sp.DurUs() > 0 {
				streamMBps = append(streamMBps, float64(sp.Bytes)/sp.DurUs())
			}
		})
		for name, v := range self {
			selfPerOp[name] = append(selfPerOp[name], v)
		}
		if len(dump.Sample) < 64 {
			dump.Sample = append(dump.Sample, root)
		}
	}
	dump.Ops = len(traced)
	dump.OpP50Us = median(traced) * 1000
	for name, durs := range perName {
		sum := 0.0
		for _, v := range selfPerOp[name] {
			sum += v
		}
		dump.Spans[name] = SpanStats{
			Count:      len(durs),
			P50Us:      median(durs),
			P50SelfUs:  median(selfPerOp[name]),
			MeanSelfUs: ratio(sum, float64(len(traced))),
		}
	}
	res.Trace = dump
	p50 := func(name string) float64 { return median(perName[name]) }
	got["client.pre_data_ms"] = p50("client.pre_data") / 1000
	got["client.post_data_ms"] = p50("client.post_data") / 1000
	got["dataserver.connect_us"] = p50("dataserver.connect")
	got["dataserver.ttfb_us"] = p50("dataserver.ttfb")
	got["dataserver.transfer_ms"] = p50("dataserver.transfer") / 1000
	got["dataserver.stream_MBps"] = median(streamMBps)
	got["e2e.trace_overhead_pct"] = 100 * ratio(median(traced)-median(bare), median(bare))

	// Counters.
	hits, misses := delta("client.cache_hits"), delta("client.cache_misses")
	got["client.cache_hit_ratio"] = ratio(hits, hits+misses)
	allOps := n + float64(len(beside))
	got["client.ctl_rpcs_per_op"] = ratio(delta("client.ctl_rpcs"), allOps)
	got["client.reads_degraded"] = delta("client.reads_degraded")
	got["client.failover_passes"] = delta("client.failover_passes")
	got["nameserver.lookups_per_op"] = ratio(delta("client.rpc.method.ns.Lookup.calls"), allOps)
	selects := delta("flowserver.selections") + delta("flowserver.write_selections")
	got["flowserver.candidates_per_select"] = ratio(delta("flowserver.candidates_evaluated"), selects)
	got["flowserver.freeze_hits_per_select"] = ratio(delta("flowserver.freeze_hits"), selects)
	got["flowserver.select_self_us"] = e.clusterReg.Snapshot().Histograms["flowserver.select_seconds"].Mean * 1e6
	got["rpc.retries"] = delta("rpc.retries")
	got["rpc.reconnects"] = delta("rpc.reconnects")
	got["dataserver.relays_scheduled"] = delta("dataserver.relays_scheduled")
	got["dataserver.append_dedups"] = delta("dataserver.append_dedups")
	got["emunet.reallocs_per_op"] = ratio(delta("emunet.reallocs"), allOps)
	got["nameserver.create_ms"] = median(e.createMs)

	// Harness.
	lat := latenciesMs(ok)
	cpu := (b.cpu - a.cpu).Seconds()
	got["proc.cpu_ms_per_op"] = cpu * 1000 / n
	got["proc.cpu_util"] = cpu / window // of the one P the run uses
	got["proc.gc_cycles"] = float64(b.mem.NumGC - a.mem.NumGC)
	got["proc.rss_peak_MB"] = b.rssMax
	got["e2e.op_p99_ms"] = stats.Percentile(lat, 99)
	got["e2e.samples"] = n
	var late, busy []float64
	var ideal []float64
	edge := e.spec.Topo().EdgeLinkBps
	for _, s := range ok {
		late = append(late, ms(s.late))
		busy = append(busy, s.lat.Seconds())
		if s.bytes > 0 {
			ideal = append(ideal, s.lat.Seconds()/(float64(s.bytes)*8/edge))
		}
	}
	if e.spec.SingleDriver {
		got["gen.late_p95_ms"] = 0
	} else {
		got["gen.late_p95_ms"] = stats.Percentile(late, 95)
		if got["gen.late_p95_ms"] > 5 {
			res.Warnings = append(res.Warnings, fmt.Sprintf("generator ran late: p95 %.2f ms > 5 ms", got["gen.late_p95_ms"]))
		}
	}
	got["gen.inflight_mean"] = stats.Mean(busy) * n / window
	got["fabric.jct_over_ideal_p50"] = median(ideal)
	var besideLat []float64
	for _, s := range beside {
		if s.ok {
			besideLat = append(besideLat, ms(s.lat))
		}
	}
	got["beside.read_p50_ms"] = stats.Percentile(besideLat, 50)
	got["beside.read_p95_ms"] = stats.Percentile(besideLat, 95)
}

// WriteTrace writes the dump of a traced run to
// <dir>/trace-<workload>.json.
func (r *Result) WriteTrace(dir string) (string, error) {
	if r.Trace == nil {
		return "", errors.New("e2e: run was not traced")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+r.Workload+".json")
	data, err := json.MarshalIndent(r.Trace, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// sortedNames returns m's keys in order, for stable reports.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
