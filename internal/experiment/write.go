package experiment

import (
	"github.com/mayflower-dfs/mayflower/internal/fabric"
	"github.com/mayflower-dfs/mayflower/internal/flowserver"
	"github.com/mayflower-dfs/mayflower/internal/testutil"
	"github.com/mayflower-dfs/mayflower/internal/topology"
	"github.com/mayflower-dfs/mayflower/internal/workload"
)

// This file models the write path of the evaluation (Config.WriteFraction):
// a write job ingests the payload from the client to the file's primary and
// fans the replication out from the primary to the remaining replicas, the
// way the real dataserver relays appends. Under the Mayflower path schemes
// every hop is a registered Flowserver flow and the fan-out order comes
// from SelectWritePipeline; under the ECMP schemes the hops take hashed
// ECMP paths in static replica order. All hops run concurrently, modeling
// a streamed pipeline (the primary relays while it is still receiving).

// writeMixSalt decorrelates the write/read coin from every other consumer
// of the workload seed.
const writeMixSalt = 0x77726974 // "writ"

// isWriteJob decides whether a job runs as an append. The decision is a
// pure hash of (Seed, job ID) — independent of scheme, worker count, and
// RNG consumption order — so sweeps stay deterministic and cross-scheme
// comparisons stay paired on the same job mix.
func (r *runner) isWriteJob(id int) bool {
	wf := r.cfg.WriteFraction
	if wf <= 0 {
		return false
	}
	if wf >= 1 {
		return true
	}
	h := uint64(testutil.DeriveSeed(r.cfg.Seed^writeMixSalt, uint64(id)))
	return float64(h>>11)/(1<<53) < wf
}

// startWriteJob performs path selection for one append and launches its
// ingest and replication hops on the fabric. The job completes when the
// last hop finishes.
func (r *runner) startWriteJob(job workload.Job) {
	file := &r.cat.Files[job.FileIndex]
	measured := job.ID >= r.cfg.WarmupJobs
	r.jobsStarted.Inc()
	r.jobsWrite.Inc()
	if measured {
		r.res.WriteJobs++
	}
	defer r.ensurePolling()

	record := func(end float64) {
		r.jobsCompleted.Inc()
		r.completed++
		r.reportProgress()
		if measured {
			r.res.CompletionTimes = append(r.res.CompletionTimes, end-job.Time)
		}
	}

	primary := file.Replicas[0]
	targets := file.Replicas[1:]

	switch r.cfg.Scheme {
	case SchemeMayflower, SchemeSinbadRMayflower, SchemeNearestMayflower, SchemeHDFSMayflower:
		// Ingest hop: the client is the sender, the primary the receiver.
		var as []flowserver.Assignment
		if job.Client != primary {
			var err error
			as, err = r.fs.SelectReplicaAndPath(flowserver.Request{
				Client:   primary,
				Replicas: []topology.NodeID{job.Client},
				Bits:     file.SizeBits,
			})
			if err != nil {
				r.skip(measured)
				return
			}
		}
		if len(targets) > 0 {
			pipe, err := r.fs.SelectWritePipeline(primary, targets, file.SizeBits)
			if err != nil {
				// Roll back the committed ingest flow so the model does not
				// leak a flow that will never run.
				for _, a := range as {
					r.fs.FlowFinished(a.FlowID)
				}
				r.skip(measured)
				return
			}
			as = append(as, pipe...)
		}
		r.launchWrite(as, record, measured)

	case SchemeSinbadRECMP, SchemeNearestECMP, SchemeHDFSECMP:
		// Resolve every hop before launching any, so a failed selection
		// skips the whole job instead of leaving half a write in flight.
		hops := make([]topology.Path, 0, len(file.Replicas))
		addHop := func(src, dst topology.NodeID, key uint64) bool {
			if src == dst {
				return true
			}
			path, err := r.ecmp.SelectPath(src, dst, key)
			if err != nil {
				return false
			}
			hops = append(hops, path)
			return true
		}
		ok := addHop(job.Client, primary, uint64(job.ID)*8)
		for i := 0; ok && i < len(targets); i++ {
			ok = addHop(primary, targets[i], uint64(job.ID)*8+uint64(i)+1)
		}
		if !ok {
			r.skip(measured)
			return
		}
		if len(hops) == 0 {
			r.localJob(record, measured)
			return
		}
		pending := len(hops)
		for _, path := range hops {
			r.fab.StartFlow(fabric.FlowConfig{
				Links: path,
				Bits:  file.SizeBits,
				OnComplete: func(end float64) {
					pending--
					if pending == 0 {
						record(end)
					}
				},
			})
		}
	}
}

// launchWrite starts one fabric flow per non-local assignment and records
// the job when the last hop completes. Local assignments (co-located
// client or replica) move no bytes.
func (r *runner) launchWrite(as []flowserver.Assignment, record func(float64), measured bool) {
	live := make([]flowserver.Assignment, 0, len(as))
	for _, a := range as {
		if !a.Local() {
			live = append(live, a)
		}
	}
	if len(live) == 0 {
		r.localJob(record, measured)
		return
	}
	pending := len(live)
	for _, a := range live {
		a := a
		simID := r.fab.StartFlow(fabric.FlowConfig{
			Links: a.Path,
			Bits:  a.Bits,
			OnComplete: func(end float64) {
				delete(r.tracked, a.FlowID)
				r.fs.FlowFinished(a.FlowID)
				pending--
				if pending == 0 {
					record(end)
				}
			},
		})
		r.tracked[a.FlowID] = simID
	}
}
