package dataserver

import (
	"context"

	"github.com/mayflower-dfs/mayflower/internal/nameserver"
	"github.com/mayflower-dfs/mayflower/internal/rpc"
	"github.com/mayflower-dfs/mayflower/internal/uuid"
)

// Client is the typed dataserver control stub over an rpc session
// (usually an *rpc.Peer): every consumer of a dataserver's control plane
// — the filesystem client, repair, peer relays, the nameserver's startup
// scanner, the CLI — calls through these methods instead of
// stringly-typed Call("ds.X", ...) sites; argument and reply shapes come
// from each method's one rpc.Method declaration. Connection lifecycle belongs to the session
// layer, not this stub.
type Client struct {
	c rpc.Caller
}

// NewClient wraps a control-plane session.
func NewClient(c rpc.Caller) *Client { return &Client{c: c} }

// Prepare creates the local file state for a file (relaying to the other
// replicas when args.Relay is set and this server is the primary).
func (c *Client) Prepare(ctx context.Context, args PrepareArgs) error {
	_, err := MethodPrepare.Call(ctx, c.c, args)
	return err
}

// Append appends a piece through the file's primary.
func (c *Client) Append(ctx context.Context, args AppendArgs) (AppendReply, error) {
	return MethodAppend.Call(ctx, c.c, args)
}

// AppendAt applies a relayed append at a fixed offset.
func (c *Client) AppendAt(ctx context.Context, args AppendAtArgs) (AppendReply, error) {
	return MethodAppendAt.Call(ctx, c.c, args)
}

// Delete removes a file's local state.
func (c *Client) Delete(ctx context.Context, fileID uuid.UUID) error {
	_, err := MethodDelete.Call(ctx, c.c, FileIDArgs{FileID: fileID})
	return err
}

// Stat reports a file's local size.
func (c *Client) Stat(ctx context.Context, fileID uuid.UUID) (StatReply, error) {
	return MethodStat.Call(ctx, c.c, FileIDArgs{FileID: fileID})
}

// ListFiles returns every locally stored file with its local size (the
// nameserver's startup-rebuild scan).
func (c *Client) ListFiles(ctx context.Context) ([]nameserver.FileRecord, error) {
	return MethodListFiles.Call(ctx, c.c, struct{}{})
}

// Scrub verifies every local chunk against its checksum sidecar.
func (c *Client) Scrub(ctx context.Context) ([]ChunkFault, error) {
	return MethodScrub.Call(ctx, c.c, struct{}{})
}

// Replicate instructs the server to copy a file from a live peer.
func (c *Client) Replicate(ctx context.Context, args ReplicateArgs) (ReplicateReply, error) {
	return MethodReplicate.Call(ctx, c.c, args)
}

// UpdateMeta rewrites a stored file's metadata.
func (c *Client) UpdateMeta(ctx context.Context, args UpdateMetaArgs) error {
	_, err := MethodUpdateMeta.Call(ctx, c.c, args)
	return err
}
