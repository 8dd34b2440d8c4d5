package rpc

import (
	"context"
	"encoding/json"
	"reflect"

	"github.com/mayflower-dfs/mayflower/internal/wire"
)

// Method declares one control RPC: its wire name and the Go types of its
// params and reply. A service states each method once,
//
//	const MethodLookup rpc.Method[nameArgs, FileInfo] = "ns.Lookup"
//
// and both ends derive from it — Handle on the server, Call in the stub
// — so the compiler pairs them, and how a control message becomes a Go
// value is decided here and nowhere else. No params or no reply: struct{}.
type Method[Req, Resp any] string

// Attached is implemented by *Req when one []byte field of Req is bulk
// data: Call and Handle then carry it raw as the wire frame's attachment
// instead of in the JSON, where the field is tagged `json:"-"`. The
// handler's Req holds the connection's receive buffer itself, shared with
// nobody else: the handler may pass it on (the primary relays it to the
// replicas uncopied) but must not retain it past its return, when the
// buffer is recycled for a later request.
type Attached interface {
	Attachment() []byte
	SetAttachment([]byte)
}

// Handle registers fn as the method's handler on srv. Params that do not
// decode into Req fail the call before fn runs; a zero-size Req has
// nothing to decode, so absent params are as good as "{}".
func (m Method[Req, Resp]) Handle(srv *wire.Server, fn func(context.Context, Req) (Resp, error)) error {
	decode := reflect.TypeOf((*Req)(nil)).Elem().Size() > 0
	return srv.Register(string(m), func(ctx context.Context, params json.RawMessage) (any, error) {
		var req Req
		if decode {
			if err := json.Unmarshal(params, &req); err != nil {
				return nil, err
			}
		}
		if a, ok := any(&req).(Attached); ok {
			a.SetAttachment(wire.Attachment(ctx))
		}
		return fn(ctx, req)
	})
}

// Call invokes the method through c and returns the decoded reply, or
// the zero Resp with c's error unchanged.
func (m Method[Req, Resp]) Call(ctx context.Context, c Caller, req Req) (Resp, error) {
	if _, ok := any((*Req)(nil)).(Attached); ok {
		r := req // escapes: declared here so that only an attaching Req pays
		ctx = wire.WithAttachment(ctx, any(&r).(Attached).Attachment())
	}
	var resp Resp
	if err := c.Call(ctx, string(m), req, &resp); err != nil {
		return *new(Resp), err // never a half-decoded reply
	}
	return resp, nil
}
