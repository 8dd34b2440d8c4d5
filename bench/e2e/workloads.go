package e2e

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/client"
	"github.com/mayflower-dfs/mayflower/internal/testbed"
	"github.com/mayflower-dfs/mayflower/internal/topology"
	"github.com/mayflower-dfs/mayflower/internal/workload"
)

// Independent random streams derived from the run seed.
const (
	streamPlacement = iota + 1
	streamOps
	streamTrace
	streamContent
)

// Workload is one set of inputs the benchmark runs. bench/README.md
// records what each stresses and what it bypasses.
type Workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same line).
	Why string
	// Topo is the emulated network.
	Topo func() topology.Config
	// Files × FileBytes is the catalog; ChunkBytes its chunk size.
	Files      int
	FileBytes  int64
	ChunkBytes int64
	// OpKind names the primary operation in traces.
	OpKind string
	// Grows marks a catalog the workload appends to, so file contents are
	// checked against the pattern rather than a kept copy.
	Grows bool
	// SingleDriver marks a workload whose primary operations come from
	// one closed-loop client, one at a time: only then can control-plane
	// round trips be attributed to the operation in flight.
	SingleDriver bool

	plan  func(e *env, topo *topology.Topology) error
	start func(e *env) (driver, error)
}

// driver issues a workload's operations: drive runs from begin until
// `until`, then waits for operations in flight.
type driver interface {
	drive(begin, until time.Time) error
}

// verifier is a driver with an end-of-run check of what the system now
// holds.
type verifier interface {
	verify() (bool, error)
}

// unboundTestbed is ScaledTestbed's shape with every link at 100 Gbps:
// flows are registered, rules installed and the pacer runs, but no link
// ever binds, so the software path is what is measured.
func unboundTestbed() topology.Config {
	cfg := testbed.ScaledTestbed()
	cfg.EdgeLinkBps = topology.Gbps(100)
	cfg.EdgeAggLinkBps = topology.Gbps(100)
	cfg.AggCoreLinkBps = topology.Gbps(100)
	return cfg
}

// Workloads lists the benchmark's workloads in reporting order.
var Workloads = []*Workload{
	{
		Name:         "read_small_ctl",
		Why:          "4 KiB reads with warm metadata: the control path (lease hit, Select, data dial, FlowFinished) is the whole op, so codec/session/Select work shows and bulk-data work must not",
		Topo:         unboundTestbed,
		Files:        64,
		FileBytes:    128 << 10,
		ChunkBytes:   128 << 10,
		OpKind:       "read_4k",
		SingleDriver: true,
		plan:         planNearClient,
		start:        startReadSmall,
	},
	{
		Name:         "read_large_stream",
		Why:          "8 MiB whole-file reads: >95% of the op is dataserver streaming through the pacer, so data-path work shows and control-path savings must not",
		Topo:         unboundTestbed,
		Files:        2,
		FileBytes:    8 << 20,
		ChunkBytes:   8 << 20,
		OpKind:       "read_8m",
		SingleDriver: true,
		plan:         planNearClient,
		start:        startReadLarge,
	},
	{
		Name:         "append_beside_reads",
		Why:          "256 KiB 3-replica appends, each followed by a stale-size tail read beside the next: the same wire/rpc/dataserver/metadata layers used for writes and size-cache misses instead of reads and hits",
		Topo:         unboundTestbed,
		Files:        4,
		FileBytes:    2 << 20,
		ChunkBytes:   8 << 20,
		OpKind:       "append_256k",
		Grows:        true,
		SingleDriver: true,
		plan:         planNearClient,
		start:        startAppendBeside,
	},
	{
		Name:       "fabric_contended",
		Why:        "Figure 8's load (Poisson open loop, Zipf 1.1, rack-heavy, oversubscribed 64 Mbps links): completion time is pacing plus replica/path choice, so selection and tail work shows, CPU/codec work must not",
		Topo:       testbed.ScaledTestbed,
		Files:      40,
		FileBytes:  512 << 10,
		ChunkBytes: 512 << 10,
		OpKind:     "read_512k",
		plan:       planPaperCatalog,
		start:      startFabricContended,
	},
}

// FindWorkload returns the named workload, or nil.
func FindWorkload(name string) *Workload {
	for _, w := range Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

func fileName(i int) string { return fmt.Sprintf("e2e/file-%04d", i) }

// planNearClient places the single-client workloads. The seed picks the
// client's host and, per file, which hosts hold it — but every file has
// the same shape relative to the client: one replica elsewhere in the
// client's rack (the primary), one in the pod's other rack, one in the
// other pod, the paper's fault-domain placement seen from a rack-local
// reader. Holding the shape fixed keeps path length, and with it the op's
// cost, the same from seed to seed; only which links and servers carry it
// varies.
func planNearClient(e *env, topo *topology.Topology) error {
	cfg := topo.Config()
	rng := rand.New(rand.NewSource(deriveSeed(e.opts.Seed, streamPlacement)))
	hosts := topo.Hosts()
	e.clientHost = hosts[rng.Intn(len(hosts))]
	me := topo.Node(e.clientHost)
	pickIn := func(pod, rack int) topology.NodeID {
		for {
			h := topo.HostAt(pod, rack, rng.Intn(cfg.HostsPerRack))
			if h != e.clientHost {
				return h
			}
		}
	}
	e.files = make([]file, e.spec.Files)
	for i := range e.files {
		otherRack := (me.Rack + 1 + rng.Intn(cfg.RacksPerPod-1)) % cfg.RacksPerPod
		otherPod := (me.Pod + 1 + rng.Intn(cfg.Pods-1)) % cfg.Pods
		e.files[i] = file{
			name: fileName(i),
			key:  uint64(deriveSeed(e.opts.Seed, streamContent+uint64(i)<<8)),
			replicas: []topology.NodeID{
				pickIn(me.Pod, me.Rack),
				pickIn(me.Pod, otherRack),
				pickIn(otherPod, rng.Intn(cfg.RacksPerPod)),
			},
		}
	}
	return nil
}

// planPaperCatalog places files as the paper's evaluation does (primary
// uniform, second replica in another rack of the pod, third in another
// pod); clients come with the trace.
func planPaperCatalog(e *env, topo *topology.Topology) error {
	rng := rand.New(rand.NewSource(deriveSeed(e.opts.Seed, streamPlacement)))
	cat, err := workload.NewCatalog(topo, rng, workload.CatalogConfig{
		NumFiles:    e.spec.Files,
		SizeBits:    float64(e.spec.FileBytes) * 8,
		Replication: 3,
		Placement:   workload.PlacementPaperEval,
	})
	if err != nil {
		return err
	}
	e.files = make([]file, len(cat.Files))
	for i, f := range cat.Files {
		e.files[i] = file{
			name:     fileName(i),
			key:      uint64(deriveSeed(e.opts.Seed, streamContent+uint64(i)<<8)),
			replicas: f.Replicas,
		}
	}
	return nil
}

// materialize generates the content of files no workload grows, once,
// so fills and checks share it.
func (e *env) materialize() {
	for i := range e.files {
		f := &e.files[i]
		f.content = make([]byte, e.spec.FileBytes)
		fillPattern(f.content, f.key, 0)
	}
}

// --- read_small_ctl -------------------------------------------------------

const smallRead = 4 << 10

type readSmall struct {
	e   *env
	cl  *client.Client
	rng *rand.Rand
	pop *workload.Zipf
}

func startReadSmall(e *env) (driver, error) {
	cl, err := e.newClient(e.clientHost, true)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(deriveSeed(e.opts.Seed, streamOps)))
	pop, err := workload.NewZipf(rng, 1.1, len(e.files))
	if err != nil {
		return nil, err
	}
	d := &readSmall{e: e, cl: cl, rng: rng, pop: pop}
	// Lease every file before the clock starts: the workload is the
	// cache-hit path.
	for i := range e.files {
		if _, err := cl.ReadAt(context.Background(), e.files[i].name, 0, smallRead); err != nil {
			return nil, fmt.Errorf("prime %s: %w", e.files[i].name, err)
		}
	}
	return d, nil
}

func (d *readSmall) drive(_, until time.Time) error {
	for time.Now().Before(until) {
		fi := d.pop.Sample()
		off := d.rng.Int63n(d.e.spec.FileBytes - smallRead + 1)
		d.e.primary.logOp(fi, off, smallRead)
		d.e.readOp(d.cl, time.Now(), fi, off, smallRead)
	}
	return nil
}

// readOp issues one timed, checked read of a fixed-content file;
// length < 0 reads the whole file.
func (e *env) readOp(cl *client.Client, from time.Time, fi int, off, length int64) {
	f := &e.files[fi]
	var data []byte
	s, err := e.primary.timed(from, func(ctx context.Context) (err error) {
		if length < 0 {
			data, err = cl.ReadAll(ctx, f.name)
		} else {
			data, err = cl.ReadAt(ctx, f.name, off, length)
		}
		return err
	})
	want := f.content[off:]
	if length >= 0 {
		want = want[:length]
	}
	s.ok = err == nil && bytes.Equal(data, want)
	s.bytes = int64(len(data))
	if !s.ok {
		e.logf("read %s [%d,+%d) failed: err=%v got %d bytes", f.name, off, length, err, len(data))
	}
}

// --- read_large_stream ----------------------------------------------------

type readLarge struct {
	e   *env
	cl  *client.Client
	rng *rand.Rand
}

func startReadLarge(e *env) (driver, error) {
	cl, err := e.newClient(e.clientHost, true)
	if err != nil {
		return nil, err
	}
	return &readLarge{e: e, cl: cl, rng: rand.New(rand.NewSource(deriveSeed(e.opts.Seed, streamOps)))}, nil
}

func (d *readLarge) drive(_, until time.Time) error {
	for time.Now().Before(until) {
		fi := d.rng.Intn(len(d.e.files))
		d.e.primary.logOp(fi, 0, -1)
		d.e.readOp(d.cl, time.Now(), fi, 0, -1)
	}
	return nil
}

// --- append_beside_reads --------------------------------------------------

const appendBytes = 256 << 10

type appendBeside struct {
	e      *env
	writer *client.Client
	reader *client.Client
	// acked is each file's last acknowledged size.
	acked []int64
}

func startAppendBeside(e *env) (driver, error) {
	writer, err := e.newClient(e.clientHost, true)
	if err != nil {
		return nil, err
	}
	// The reader is a second client on the same host, outside the
	// tracer so its traffic never lands in the appender's spans.
	reader, err := e.newClient(e.clientHost, false)
	if err != nil {
		return nil, err
	}
	d := &appendBeside{e: e, writer: writer, reader: reader, acked: make([]int64, len(e.files))}
	for i := range d.acked {
		d.acked[i] = e.spec.FileBytes
	}
	return d, nil
}

// tailRead asks the beside reader for one read.
type tailRead struct {
	file int
	size int64
	due  time.Time
}

func (d *appendBeside) drive(_, until time.Time) error {
	// Every acknowledged append hands the reader one tail read, which
	// then runs beside the next append. Tying reads to appends (rather
	// than to the clock) keeps the work per append, and with it the
	// allocation counts, the same however fast the machine is.
	reads := make(chan tailRead, 1) // the appender never waits: at most one read is pending per append in flight
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		d.readTails(reads)
	}()
	payload := make([]byte, appendBytes)
	for i := 0; time.Now().Before(until); i++ {
		fi := i % len(d.e.files)
		f := &d.e.files[fi]
		size := d.acked[fi]
		fillPattern(payload, f.key, size)
		d.e.primary.logOp(fi, size, appendBytes)
		var newSize int64
		s, err := d.e.primary.timed(time.Now(), func(ctx context.Context) (err error) {
			newSize, err = d.writer.Append(ctx, f.name, payload)
			return err
		})
		s.ok = err == nil && newSize == size+appendBytes
		if !s.ok {
			d.e.logf("append %s at %d failed: err=%v new size %d", f.name, size, err, newSize)
			continue
		}
		s.bytes = appendBytes
		d.acked[fi] = newSize
		reads <- tailRead{file: fi, size: newSize, due: time.Now()}
	}
	close(reads)
	wg.Wait()
	return nil
}

// readTails is the beside reader: for each acknowledged append it reads
// the last 4 KiB below the new size. Its client last saw the file
// shorter, so each read takes the stale-size path (client.Stat, a
// dataserver round trip) before the bulk read. Reads are timed from the
// acknowledgement that caused them, so queueing behind a slow read
// counts.
func (d *appendBeside) readTails(reads <-chan tailRead) {
	want := make([]byte, smallRead)
	for rd := range reads {
		f := &d.e.files[rd.file]
		off := rd.size - smallRead
		var data []byte
		s, err := d.e.beside.timed(rd.due, func(ctx context.Context) (err error) {
			data, err = d.reader.ReadAt(ctx, f.name, off, smallRead)
			return err
		})
		fillPattern(want, f.key, off)
		s.ok = err == nil && bytes.Equal(data, want)
		s.bytes = int64(len(data))
		if !s.ok {
			d.e.logf("tail read %s at %d failed: err=%v", f.name, off, err)
		}
	}
}

// verify reads every file back whole: it must hold exactly the
// acknowledged bytes, each where the pattern says.
func (d *appendBeside) verify() (bool, error) {
	ok := true
	for fi := range d.e.files {
		f := &d.e.files[fi]
		size := d.acked[fi]
		data, err := d.reader.ReadAll(context.Background(), f.name)
		if err != nil {
			return false, fmt.Errorf("final read of %s: %w", f.name, err)
		}
		want := make([]byte, size)
		fillPattern(want, f.key, 0)
		if !bytes.Equal(data, want) {
			d.e.logf("final check of %s: got %d bytes, want %d, content equal=%v", f.name, len(data), size, false)
			ok = false
		}
	}
	return ok, nil
}

// --- fabric_contended -----------------------------------------------------

// contendedLambda is the Poisson arrival rate per server per second
// (≈ 40 jobs/s over sixteen servers), testbed.DefaultExperiment's load.
const contendedLambda = 5

type fabricContended struct {
	e       *env
	clients map[topology.NodeID]*client.Client
	rng     *rand.Rand
}

func startFabricContended(e *env) (driver, error) {
	d := &fabricContended{
		e:       e,
		clients: make(map[topology.NodeID]*client.Client),
		rng:     rand.New(rand.NewSource(deriveSeed(e.opts.Seed, streamTrace))),
	}
	for _, h := range e.cluster.Topo.Hosts() {
		cl, err := e.newClient(h, true)
		if err != nil {
			return nil, err
		}
		d.clients[h] = cl
	}
	return d, nil
}

func (d *fabricContended) drive(begin, until time.Time) error {
	topo := d.e.cluster.Topo
	horizon := until.Sub(begin).Seconds()
	cat := &workload.Catalog{Files: make([]workload.File, len(d.e.files))}
	for i, f := range d.e.files {
		cat.Files[i] = workload.File{Index: i, SizeBits: float64(d.e.spec.FileBytes) * 8, Replicas: f.replicas}
	}
	// Generate wants a job count, the run a time horizon: draw half as
	// many again as the horizon expects and cut at the horizon.
	expect := contendedLambda * float64(topo.NumHosts()) * horizon
	jobs, err := workload.Generate(topo, d.rng, cat, workload.TraceConfig{
		LambdaPerServer: contendedLambda,
		NumJobs:         int(expect*1.5) + 64,
		ZipfSkew:        1.1,
		Locality:        workload.LocalityRackHeavy,
	})
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	for _, job := range jobs {
		if job.Time >= horizon {
			break
		}
		job.Client = d.offReplica(job.Client, job.FileIndex)
		due := begin.Add(time.Duration(job.Time * float64(time.Second)))
		time.Sleep(time.Until(due))
		d.e.primary.logOp(job.FileIndex, int64(job.Client), -1)
		wg.Add(1)
		go func(job workload.Job) {
			defer wg.Done()
			d.e.readOp(d.clients[job.Client], due, job.FileIndex, 0, -1)
		}(job)
	}
	wg.Wait()
	return nil
}

// offReplica moves a client the trace put on a host holding a replica of
// its file to the next host of the same rack that holds none (replicas
// sit in distinct racks, so one exists). The paper's workload leaves the
// co-located case out "due to lack of network activity"; here it would
// also not be fault-free: fs.Select's reply for a co-located replica
// carries EstimatedBw = +Inf, which the JSON codec cannot encode, so the
// call fails and the client silently degrades (see bench/README.md).
func (d *fabricContended) offReplica(client topology.NodeID, fi int) topology.NodeID {
	topo := d.e.cluster.Topo
	holds := func(h topology.NodeID) bool {
		for _, r := range d.e.files[fi].replicas {
			if r == h {
				return true
			}
		}
		return false
	}
	n := topo.Node(client)
	per := topo.Config().HostsPerRack
	for i := 0; i < per && holds(client); i++ {
		client = topo.HostAt(n.Pod, n.Rack, (n.Index+1+i)%per)
	}
	return client
}
