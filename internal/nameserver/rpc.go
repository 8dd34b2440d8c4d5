package nameserver

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"github.com/mayflower-dfs/mayflower/internal/rpc"
	"github.com/mayflower-dfs/mayflower/internal/wire"
)

// The RPC methods served by the nameserver: each constant is the one
// statement of a method's wire name, params and reply (see rpc.Method).
const (
	MethodRegister   rpc.Method[ServerInfo, struct{}]        = "ns.Register"
	MethodCreate     rpc.Method[createArgs, FileInfo]        = "ns.Create"
	MethodLookup     rpc.Method[nameArgs, FileInfo]          = "ns.Lookup"
	MethodValidate   rpc.Method[validateArgs, validateReply] = "ns.Validate"
	MethodList       rpc.Method[listArgs, []FileInfo]        = "ns.List"
	MethodDelete     rpc.Method[nameArgs, FileInfo]          = "ns.Delete"
	MethodReportSize rpc.Method[reportSizeArgs, struct{}]    = "ns.ReportSize"
	MethodServers    rpc.Method[struct{}, []ServerInfo]      = "ns.Servers"
	MethodHeartbeat  rpc.Method[heartbeatArgs, struct{}]     = "ns.Heartbeat"
)

type createArgs struct {
	Name string        `json:"name"`
	Opts CreateOptions `json:"opts"`
}

type nameArgs struct {
	Name string `json:"name"`
}

type listArgs struct {
	Prefix string `json:"prefix"`
}

type heartbeatArgs struct {
	ServerID string `json:"serverId"`
}

type reportSizeArgs struct {
	Name      string `json:"name"`
	SizeBytes int64  `json:"sizeBytes"`
}

type validateArgs struct {
	// Epoch is the namespace epoch the client last observed; a match
	// renews every lease in one shot.
	Epoch   int64           `json:"epoch"`
	Entries []ValidateEntry `json:"entries"`
}

type validateReply struct {
	Epoch   int64            `json:"epoch"`
	Results []ValidateResult `json:"results"`
}

// RegisterRPC exposes a nameserver (centralized Service or
// Paxos-replicated ReplicatedService) on a wire server.
func RegisterRPC(srv *wire.Server, svc Metadata) error {
	return errors.Join(
		MethodRegister.Handle(srv, func(_ context.Context, si ServerInfo) (struct{}, error) {
			return struct{}{}, svc.RegisterServer(si)
		}),
		MethodCreate.Handle(srv, func(_ context.Context, a createArgs) (FileInfo, error) {
			return svc.Create(a.Name, a.Opts)
		}),
		MethodLookup.Handle(srv, func(_ context.Context, a nameArgs) (FileInfo, error) {
			return svc.Lookup(a.Name)
		}),
		MethodValidate.Handle(srv, func(_ context.Context, a validateArgs) (validateReply, error) {
			results, epoch := svc.Validate(a.Epoch, a.Entries)
			return validateReply{Epoch: epoch, Results: results}, nil
		}),
		MethodList.Handle(srv, func(_ context.Context, a listArgs) ([]FileInfo, error) {
			return svc.List(a.Prefix), nil
		}),
		MethodDelete.Handle(srv, func(_ context.Context, a nameArgs) (FileInfo, error) {
			return svc.Delete(a.Name)
		}),
		MethodReportSize.Handle(srv, func(_ context.Context, a reportSizeArgs) (struct{}, error) {
			return struct{}{}, svc.ReportSize(a.Name, a.SizeBytes)
		}),
		MethodHeartbeat.Handle(srv, func(_ context.Context, a heartbeatArgs) (struct{}, error) {
			return struct{}{}, svc.Heartbeat(a.ServerID)
		}),
		MethodServers.Handle(srv, func(context.Context, struct{}) ([]ServerInfo, error) {
			return svc.Servers(), nil
		}),
	)
}

// Client is the typed nameserver stub over an rpc session (usually an
// *rpc.Peer). Connection lifecycle — dialing, pooling, reconnection —
// belongs to the session layer, not this stub.
type Client struct {
	c rpc.Caller
}

// NewClient wraps a control-plane session.
func NewClient(c rpc.Caller) *Client { return &Client{c: c} }

// Register registers a dataserver.
func (c *Client) Register(ctx context.Context, si ServerInfo) error {
	_, err := MethodRegister.Call(ctx, c.c, si)
	return mapError(err)
}

// Create creates a file and returns its metadata.
func (c *Client) Create(ctx context.Context, name string, opts CreateOptions) (FileInfo, error) {
	fi, err := MethodCreate.Call(ctx, c.c, createArgs{Name: name, Opts: opts})
	return fi, mapError(err)
}

// Lookup fetches a file's metadata.
func (c *Client) Lookup(ctx context.Context, name string) (FileInfo, error) {
	fi, err := MethodLookup.Call(ctx, c.c, nameArgs{Name: name})
	return fi, mapError(err)
}

// Validate checks a batch of cached (name, version) pairs — the lease
// renewal path. epoch is the namespace epoch last observed by the
// caller; the current epoch is returned alongside per-entry verdicts.
func (c *Client) Validate(ctx context.Context, epoch int64, entries []ValidateEntry) ([]ValidateResult, int64, error) {
	reply, err := MethodValidate.Call(ctx, c.c, validateArgs{Epoch: epoch, Entries: entries})
	return reply.Results, reply.Epoch, mapError(err)
}

// List fetches metadata for files with the given name prefix.
func (c *Client) List(ctx context.Context, prefix string) ([]FileInfo, error) {
	files, err := MethodList.Call(ctx, c.c, listArgs{Prefix: prefix})
	return files, mapError(err)
}

// Delete removes a file's metadata, returning its last known info.
func (c *Client) Delete(ctx context.Context, name string) (FileInfo, error) {
	fi, err := MethodDelete.Call(ctx, c.c, nameArgs{Name: name})
	return fi, mapError(err)
}

// ReportSize records a file's new size after an append.
func (c *Client) ReportSize(ctx context.Context, name string, sizeBytes int64) error {
	_, err := MethodReportSize.Call(ctx, c.c, reportSizeArgs{Name: name, SizeBytes: sizeBytes})
	return mapError(err)
}

// Heartbeat reports a dataserver as alive.
func (c *Client) Heartbeat(ctx context.Context, serverID string) error {
	_, err := MethodHeartbeat.Call(ctx, c.c, heartbeatArgs{ServerID: serverID})
	return mapError(err)
}

// Servers lists registered dataservers.
func (c *Client) Servers(ctx context.Context) ([]ServerInfo, error) {
	servers, err := MethodServers.Call(ctx, c.c, struct{}{})
	return servers, mapError(err)
}

// mapError restores the package's sentinel errors from remote error
// strings so callers can use errors.Is across the RPC boundary.
func mapError(err error) error {
	if err == nil {
		return nil
	}
	var re *wire.RemoteError
	if !errors.As(err, &re) {
		return err
	}
	switch {
	case strings.Contains(re.Msg, ErrNotFound.Error()):
		return fmt.Errorf("%w (%s)", ErrNotFound, re.Method)
	case strings.Contains(re.Msg, ErrExists.Error()):
		return fmt.Errorf("%w (%s)", ErrExists, re.Method)
	case strings.Contains(re.Msg, ErrNoDataservers.Error()):
		return fmt.Errorf("%w (%s)", ErrNoDataservers, re.Method)
	default:
		return err
	}
}
