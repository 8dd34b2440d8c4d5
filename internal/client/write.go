package client

import (
	"context"
	"errors"

	"github.com/mayflower-dfs/mayflower/internal/dataserver"
	"github.com/mayflower-dfs/mayflower/internal/flowserver"
	"github.com/mayflower-dfs/mayflower/internal/nameserver"
)

// This file is the client's fault-handling write path, the mirror of
// failover.go for appends: each piece carries a stable sequence number
// and is retried across primary failures with backoff and metadata
// refresh, so an append survives repair-driven primary re-election
// without ever duplicating bytes. The client→primary transfer is also
// registered with the Flowserver so write traffic is a scheduled,
// control-plane-visible citizen like reads (§3.3 of the paper); as
// everywhere else, the Flowserver is an optimizer, not a dependency.

// appendSeqBase draws a random nonzero base for one Append call's piece
// sequence numbers; piece i is sent as base+i on every attempt.
func (c *Client) appendSeqBase() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Odd and therefore nonzero; collisions across calls are as unlikely
	// as 63-bit random collisions within a file's dedupe window.
	return uint64(c.rng.Int63())<<1 | 1
}

// appendPiece sends one piece under its sequence number, retrying across
// primary failures with the read path's backoff/refresh discipline. It
// returns the acknowledged file size and the (possibly refreshed) file
// metadata for the next piece.
func (c *Client) appendPiece(ctx context.Context, name string, info nameserver.FileInfo,
	seq uint64, piece []byte, remBits float64, wf *writeFlow) (int64, nameserver.FileInfo, error) {

	retries := c.opts.WriteRetries
	var errs []error
	for pass := 0; pass < retries; pass++ {
		if pass > 0 {
			c.met.writeFailoverPasses.Inc()
			if err := c.backoff(ctx, pass); err != nil {
				return 0, info, errors.Join(append(errs, err)...)
			}
			c.invalidate(name)
			fresh, err := c.fileInfo(ctx, name)
			if err != nil {
				errs = append(errs, err)
				continue
			}
			if fresh.Primary().ServerID != info.Primary().ServerID {
				// Repair promoted a new primary: move the scheduled flow's
				// registration to the new receiver.
				wf.rebind(c, ctx, fresh.Primary().Host, remBits)
			}
			info = fresh
		}
		reply, err := c.appendAttempt(ctx, name, info, seq, piece)
		if err == nil {
			c.met.appendAttemptsOK.Inc()
			return reply.SizeBytes, info, nil
		}
		c.met.appendAttemptsErr.Inc()
		// The primary may be dead: drop the cached metadata so the retry
		// re-resolves it (the session pool already discards the dead
		// connection itself).
		c.invalidate(name)
		errs = append(errs, err)
		if ctx.Err() != nil {
			break
		}
	}
	return 0, info, errors.Join(errs...)
}

// appendAttempt performs one bounded append RPC against the primary.
func (c *Client) appendAttempt(ctx context.Context, name string, info nameserver.FileInfo,
	seq uint64, piece []byte) (dataserver.AppendReply, error) {

	// Deliberately the caller's ctx, not rpcCtx: this RPC carries up to
	// MaxAppend of bulk data plus the replication relay, so the metadata
	// rpcTimeout would cut off large pieces on slow links. A dead primary
	// still fails fast (connection error), which is what the retry loop
	// keys on.
	return c.control(info.Primary().ControlAddr).Append(ctx, dataserver.AppendArgs{
		FileID: info.ID,
		Name:   name,
		Data:   piece,
		Seq:    seq,
	})
}

// writeFlow tracks the control-plane registration of one append's
// client→primary transfer, pinned to the stub that issued it so the
// release reaches the coordinating shard under directory routing.
type writeFlow struct {
	id flowserver.FlowID
	fs *flowserver.RPCClient // nil: nothing to release
}

// registerWriteFlow registers the client→primary hop of an append with
// the Flowserver: the primary is the flow's receiver, this client the
// sender. Errors degrade to an unscheduled write.
func (c *Client) registerWriteFlow(ctx context.Context, primaryHost string, bits float64) writeFlow {
	if c.fr == nil {
		c.met.writesDegraded.Inc()
		return writeFlow{}
	}
	sctx := ctx
	if t := c.opts.FlowserverTimeout; t > 0 {
		var cancel context.CancelFunc
		sctx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
	}
	as, stub, err := c.flowSelect(sctx, flowserver.SelectArgs{
		ClientHost:   primaryHost,
		ReplicaHosts: []string{c.opts.Host},
		Bits:         bits,
	})
	if err != nil || len(as) == 0 {
		c.met.writesDegraded.Inc()
		return writeFlow{}
	}
	if as[0].Local {
		// Client and primary share a host; nothing crosses the network.
		return writeFlow{}
	}
	c.met.writeFlows.Inc()
	return writeFlow{id: as[0].FlowID, fs: stub}
}

// finish releases the flow, once.
func (wf *writeFlow) finish() {
	if wf.fs != nil {
		wf.fs.Release(wf.id)
		wf.fs = nil
	}
}

// rebind moves the registration to a newly promoted primary, sized to
// the bits still to send.
func (wf *writeFlow) rebind(c *Client, ctx context.Context, primaryHost string, bits float64) {
	wf.finish()
	*wf = c.registerWriteFlow(ctx, primaryHost, bits)
}
