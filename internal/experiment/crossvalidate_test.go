package experiment

import (
	"math"
	"testing"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/topology"
	"github.com/mayflower-dfs/mayflower/internal/workload"
)

// crossTopo is the CI-sized cross-validation topology: 8 hosts in 2 pods
// × 2 racks × 2 hosts at 16 Mbps edges, so an emulated run's transfers
// finish in fractions of a second.
func crossTopo(t *testing.T) *topology.Topology {
	t.Helper()
	topo, err := topology.New(topology.Config{
		Pods: 2, RacksPerPod: 2, HostsPerRack: 2, AggsPerPod: 2, Cores: 2,
		EdgeLinkBps: 16e6, EdgeAggLinkBps: 16e6, AggCoreLinkBps: 8e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// crossConfig is one scheme's cross-validation run: a short trace of
// small reads that still overlaps flows enough to exercise fair sharing,
// selection, and stats polling.
func crossConfig(t *testing.T, scheme Scheme, backend BackendKind) Config {
	cfg := Config{
		Scheme:        scheme,
		Lambda:        3.0, // dense enough that transfers overlap and share links
		NumJobs:       24,
		WarmupJobs:    4,
		NumFiles:      12,
		FileBits:      2e6, // 2 Mbit: 0.125 s alone at 16 Mbps
		Replication:   3,
		Locality:      workload.LocalityRackHeavy,
		StatsInterval: 0.25,
		Seed:          7,
		Backend:       backend,
		Topo:          crossTopo(t),
	}
	if backend == BackendEmunet {
		cfg.EmuSpeedup = 4
	}
	return cfg
}

// TestCrossValidation runs every scheme of the paper's evaluation — the
// five §6.2 schemes plus the two HDFS Figure-8 schemes — through the one
// backend-parameterized driver on both substrates and asserts the mean
// read-completion times agree.
//
// Tolerance: the emulator's gate grants 16 KiB quanta here (128 Kbit ≈ 8
// ms of fabric time per quantum at 16 Mbps, the granularity at which rate
// changes take hold: a quantum is 2 ms of the flow's share, but never
// under the 16 KiB floor, and every rate below 65.5 Mbps sits on the
// floor) and sleeps on the OS timer through a 4x-compressed clock
// (≈1-4 ms of fabric-time slop per sleep), and completion-callback
// timing feeds back into selection, so per-job times genuinely diverge.
// What must hold for the evaluation to be credible is that the schemes'
// aggregate behaviour matches; we allow the mean 35% relative + 80 ms
// absolute slack, far tighter than the ≥2x between-scheme separations
// the figures report.
//
// That slack covers timer slop, not a host that stops scheduling us: see
// emunetRun.
func TestCrossValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation moves real paced bytes; skipped in -short")
	}
	schemes := []Scheme{
		SchemeMayflower,
		SchemeSinbadRMayflower,
		SchemeSinbadRECMP,
		SchemeNearestMayflower,
		SchemeNearestECMP,
		SchemeHDFSECMP,
		SchemeHDFSMayflower,
	}
	// Serial on purpose: parallel subtests would contend for CPU and
	// distort the emulator's pacing.
	for _, scheme := range schemes {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			simRes, err := Run(crossConfig(t, scheme, BackendNetsim))
			if err != nil {
				t.Fatalf("netsim run: %v", err)
			}
			emuRes := emunetRun(t, scheme)
			if len(simRes.CompletionTimes) != len(emuRes.CompletionTimes) {
				t.Fatalf("job counts differ: netsim %d, emunet %d",
					len(simRes.CompletionTimes), len(emuRes.CompletionTimes))
			}
			simMean := simRes.Summary.Mean
			emuMean := emuRes.Summary.Mean
			diff := math.Abs(simMean - emuMean)
			tol := 0.35*simMean + 0.08
			t.Logf("mean completion: netsim %.3fs, emunet %.3fs (diff %.3fs, tol %.3fs); slowest job: netsim %.3fs, emunet %.3fs",
				simMean, emuMean, diff, tol, simRes.Summary.Max, emuRes.Summary.Max)
			if diff > tol {
				t.Errorf("backends disagree: netsim mean %.3fs vs emunet mean %.3fs (tolerance %.3fs)",
					simMean, emuMean, tol)
			}
		})
	}
}

// maxHostStall is how late a runnable goroutine may be woken during an
// emulated run before the run says nothing about emunet: 20 ms of wall
// time is 80 ms on the 4x clock, the whole absolute slack of the
// tolerance.
const maxHostStall = 20 * time.Millisecond

// emunetRun runs one scheme's trace on the emulator, again (up to three
// attempts) when the host stalled under it. Completion times are measured
// from each job's scheduled arrival, and every driver callback sleeps on
// the OS timer, so a stretch in which the host (a noisy CI neighbour, a
// paused VM) leaves the process unscheduled makes every job due in it —
// jobs with a co-located replica and no flow at all included — late by
// the length of the stall; measured here, the failing runs all had
// wake-ups 50-80 ms late, against 1-4 ms otherwise, and three quarters
// of their jobs slow, so no median or trimmed mean rescues them. The
// stall is observed from outside the emulator, by a goroutine that only
// sleeps, so a pacer that stalls on its own still fails the comparison
// (and shows in the logged slowest job). A host that never holds still
// skips the scheme: there is nothing to attribute a disagreement to.
func emunetRun(t *testing.T, scheme Scheme) *Result {
	t.Helper()
	for attempt := 1; ; attempt++ {
		stop := make(chan struct{})
		worst := make(chan time.Duration)
		go func() {
			var w time.Duration
			for last := time.Now(); ; {
				select {
				case <-stop:
					worst <- w
					return
				default:
				}
				time.Sleep(time.Millisecond)
				now := time.Now()
				if late := now.Sub(last) - time.Millisecond; late > w {
					w = late
				}
				last = now
			}
		}()
		res, err := Run(crossConfig(t, scheme, BackendEmunet))
		close(stop)
		stall := <-worst
		if err != nil {
			t.Fatalf("emunet run: %v", err)
		}
		if stall <= maxHostStall {
			return res
		}
		t.Logf("attempt %d: host stalled %v under the emulated run (mean %.3fs, slowest job %.3fs); discarded",
			attempt, stall, res.Summary.Mean, res.Summary.Max)
		if attempt == 3 {
			t.Skipf("host stalled under all %d emulated runs; backends not compared", attempt)
		}
	}
}
