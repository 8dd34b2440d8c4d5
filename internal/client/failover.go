package client

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/nameserver"
	"github.com/mayflower-dfs/mayflower/internal/topology"
)

// This file is the client's fault-handling read path: per-replica attempt
// timeouts, exponential backoff between failover passes, and
// locality-order replica selection for when the Flowserver is
// unreachable. The Flowserver is an optimizer, not a dependency (§3.3 of
// the paper); losing it must degrade read placement, never availability.

// localityRank scores a replica host's network distance from this client:
// 0 same host, 1 same rack, 2 same pod, 3 other pod or unknown.
func (c *Client) localityRank(host string) int {
	if host != "" && host == c.opts.Host {
		return 0
	}
	p, r, ok := topology.ParseHostName(host)
	if !ok || !c.located {
		return 3
	}
	switch {
	case p == c.pod && r == c.rack:
		return 1
	case p == c.pod:
		return 2
	default:
		return 3
	}
}

// orderCandidates returns the replicas to try for a read, best first:
// first (when non-nil) pinned to the front, the rest in locality order.
// Ties keep replica-set order, so candidate lists are deterministic given
// the metadata — a fault-injection run with a fixed seed replays the same
// failover sequence.
func (c *Client) orderCandidates(info nameserver.FileInfo, first *nameserver.ReplicaLoc) []nameserver.ReplicaLoc {
	out := make([]nameserver.ReplicaLoc, 0, len(info.Replicas)+1)
	if first != nil {
		out = append(out, *first)
	}
	rest := make([]nameserver.ReplicaLoc, 0, len(info.Replicas))
	for _, rep := range info.Replicas {
		if first != nil && rep.ServerID == first.ServerID {
			continue
		}
		rest = append(rest, rep)
	}
	sort.SliceStable(rest, func(i, j int) bool {
		return c.localityRank(rest[i].Host) < c.localityRank(rest[j].Host)
	})
	return append(out, rest...)
}

// flowTagger supplies the flow id (and an optional completion callback)
// to tag a read attempt against a given replica with. Attempts against
// replicas the tagger does not know run unscheduled (flow id 0) — the
// degraded, control-plane-invisible mode.
type flowTagger func(rep nameserver.ReplicaLoc) (flowID uint64, done func())

// readWithFailover fills buf from [offset, offset+len(buf)), retrying
// across the candidate replicas with a per-attempt timeout and exponential
// backoff between passes. Between passes the file metadata is refreshed so
// a repaired replica set (or a promoted primary, when primaryOnly) is
// picked up. It returns the joined attempt errors only after every pass
// has failed — the read path never hangs on a single dead replica.
func (c *Client) readWithFailover(ctx context.Context, name string, info nameserver.FileInfo,
	cands []nameserver.ReplicaLoc, tag flowTagger, offset int64, buf []byte, primaryOnly bool) error {

	var errs []error
	for pass := 0; pass < readPasses; pass++ {
		if pass > 0 {
			c.met.failoverPasses.Inc()
			if err := c.backoff(ctx, pass); err != nil {
				return errors.Join(append(errs, err)...)
			}
			c.invalidate(name)
			fresh, err := c.fileInfo(ctx, name)
			if err != nil {
				errs = append(errs, err)
				continue
			}
			info = fresh
			if primaryOnly {
				cands = []nameserver.ReplicaLoc{fresh.Primary()}
			} else {
				cands = c.orderCandidates(fresh, nil)
			}
			tag = nil // the original schedule no longer applies
		}
		for _, rep := range cands {
			var flowID uint64
			var done func()
			if tag != nil {
				flowID, done = tag(rep)
			}
			err := c.readAttempt(ctx, name, info, rep, flowID, offset, buf)
			if done != nil {
				done()
			}
			if err == nil {
				c.met.attemptsOK.Inc()
				return nil
			}
			c.met.attemptsErr.Inc()
			errs = append(errs, err)
			if ctx.Err() != nil {
				return errors.Join(errs...)
			}
		}
	}
	return fmt.Errorf("client: read %s failed on every replica: %w", name, errors.Join(errs...))
}

// readAttempt performs one read attempt against one replica, bounded by
// readTimeout (the bulk reader's).
func (c *Client) readAttempt(ctx context.Context, name string, info nameserver.FileInfo,
	rep nameserver.ReplicaLoc, flowID uint64, offset int64, buf []byte) error {
	size, err := c.bulk.Read(ctx, rep.DataAddr, flowID, info.ID, offset, buf)
	if err != nil {
		return fmt.Errorf("client: read %s from %s: %w", name, rep.ServerID, err)
	}
	c.observeSize(name, info.Version, size)
	return nil
}

// backoff sleeps the exponential retry delay for the given pass (1-based),
// aborting early if ctx is done. The policy is the control plane's shared
// rpc.Backoff — the same curve the session layer uses between reconnects.
func (c *Client) backoff(ctx context.Context, pass int) error {
	start := time.Now()
	defer func() { c.met.backoffSeconds.Observe(time.Since(start).Seconds()) }()
	return c.retry.Sleep(ctx, pass)
}

// statReplicas asks the primary, then the remaining replicas in order, for
// the file's local size. The primary holds every acknowledged byte; the
// fallbacks may briefly lag relayed appends, so the first answer wins and
// the caller merges it with the nameserver's record.
func (c *Client) statReplicas(ctx context.Context, info nameserver.FileInfo) (int64, error) {
	var errs []error
	for _, rep := range info.Replicas {
		sctx, cancel := c.rpcCtx(ctx)
		st, err := c.control(rep.ControlAddr).Stat(sctx, info.ID)
		cancel()
		if err != nil {
			errs = append(errs, fmt.Errorf("client: stat on %s: %w", rep.ServerID, err))
			if ctx.Err() != nil {
				break
			}
			continue
		}
		return st.SizeBytes, nil
	}
	return 0, errors.Join(errs...)
}

// rpcCtx bounds a small metadata/control RPC with the client's default
// timeout when the caller supplied no deadline, so a stalled nameserver or
// dataserver surfaces as an error instead of a hang.
func (c *Client) rpcCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); ok {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, rpcTimeout)
}
