package dataserver

import (
	"context"
	"fmt"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/nameserver"
	"github.com/mayflower-dfs/mayflower/internal/rpc"
)

// Re-replication control methods (the paper's §3.2 design goal of
// GFS/HDFS-grade fault tolerance).
const (
	// MethodReplicate instructs a dataserver to become a replica of a
	// file by copying it from a live peer.
	MethodReplicate rpc.Method[ReplicateArgs, ReplicateReply] = "ds.Replicate"
	// MethodUpdateMeta rewrites a stored file's metadata (the repaired
	// replica set, including a possibly promoted primary).
	MethodUpdateMeta rpc.Method[UpdateMetaArgs, struct{}] = "ds.UpdateMeta"
)

// UpdateMetaArgs carries the new metadata for a stored file.
type UpdateMetaArgs struct {
	Info nameserver.FileInfo `json:"info"`
}

// ReplicateArgs ask the receiving server to fetch a file from a peer.
type ReplicateArgs struct {
	// Info is the file's metadata (with the post-repair replica set).
	Info nameserver.FileInfo `json:"info"`
	// SourceDataAddr is the bulk data endpoint of a live replica.
	SourceDataAddr string `json:"sourceDataAddr"`
	// SizeBytes is how much of the file to copy.
	SizeBytes int64 `json:"sizeBytes"`
}

// ReplicateReply reports the receiving server's local size afterwards.
type ReplicateReply struct {
	SizeBytes int64 `json:"sizeBytes"`
}

// replicateFrom copies a file from a peer in MaxAppend slices, resuming
// from whatever prefix is already local (re-replication after a partial
// earlier attempt is incremental).
func (s *Server) replicateFrom(ctx context.Context, a ReplicateArgs) (int64, error) {
	if a.SizeBytes < 0 {
		return 0, fmt.Errorf("dataserver: negative replicate size %d", a.SizeBytes)
	}
	if err := s.store.prepare(a.Info); err != nil {
		return 0, err
	}
	fs, err := s.store.get(a.Info.ID)
	if err != nil {
		return 0, err
	}
	offset := fs.localSize()
	buf := make([]byte, max(0, min(MaxAppend, a.SizeBytes-offset)))
	for offset < a.SizeBytes {
		n := min(a.SizeBytes-offset, int64(len(buf)))
		if err := s.fetchRange(ctx, a.SourceDataAddr, a.Info, offset, buf[:n]); err != nil {
			return offset, fmt.Errorf("dataserver: replicate %s from %s: %w", a.Info.ID, a.SourceDataAddr, err)
		}
		offset, err = s.store.appendAt(a.Info.ID, offset, buf[:n])
		if err != nil {
			return offset, err
		}
	}
	return offset, nil
}

// fetchRange reads one byte range from a peer over the bulk data
// protocol, unscheduled (flow id 0).
func (s *Server) fetchRange(ctx context.Context, addr string, info nameserver.FileInfo, offset int64, buf []byte) error {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Minute) // a caller's nearer deadline still wins
	defer cancel()
	_, err := s.bulk.Read(ctx, addr, 0, info.ID, offset, buf)
	return err
}
