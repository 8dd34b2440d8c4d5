package rpc

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/mayflower-dfs/mayflower/internal/wire"
)

type seamArgs struct {
	N int `json:"n"`
}

// seamBlob opts in to the raw attachment, as ds.Append's params do.
type seamBlob struct {
	Tag  string `json:"tag"`
	Data []byte `json:"-"`
}

func (b *seamBlob) Attachment() []byte     { return b.Data }
func (b *seamBlob) SetAttachment(d []byte) { b.Data = d }

// seamJSONBytes does not: its bytes stay a JSON field, as paxos values do.
type seamJSONBytes struct {
	V []byte `json:"v"`
}

// The scratch service the seam is tested on: one method per shape a real
// service declares (struct params, no params, slice reply, failing, and
// bulk bytes attached or not).
const (
	seamBlobSum Method[seamBlob, string]      = "seam.BlobSum"
	seamJSONSum Method[seamJSONBytes, string] = "seam.JSONSum"
	seamDouble  Method[seamArgs, int]         = "seam.Double"
	seamPing    Method[struct{}, string]      = "seam.Ping"
	seamNone    Method[seamArgs, []string]    = "seam.None"
	seamFail    Method[seamArgs, int]         = "seam.Fail"
	seamShort   Method[struct{}, []seamArgs]  = "seam.Short"
)

// TestMethodSeam pins what every service gets from declaring a method as
// a Method[Req, Resp] instead of hand-unmarshalling: one table over a
// scratch wire server, because the behaviour belongs to the seam and not
// to any one service.
func TestMethodSeam(t *testing.T) {
	var ran atomic.Int64 // handler executions, to prove a bad request never reaches one
	// seam.Fail fails with the error its argument picks.
	fails := []error{errors.New("boom"), context.DeadlineExceeded, context.Canceled}

	// What a bytes-carrying handler saw: its tag, its bytes' digest, and
	// how many bytes rode the frame's attachment to get there.
	saw := func(ctx context.Context, tag string, b []byte) string {
		return fmt.Sprintf("%s %d %x attached=%d", tag, len(b), sha256.Sum256(b), len(wire.Attachment(ctx)))
	}
	blob := make([]byte, 100_000)
	for i := range blob {
		blob[i] = byte(i * 31)
	}

	srv := wire.NewServer()
	err := errors.Join(
		seamBlobSum.Handle(srv, func(ctx context.Context, b seamBlob) (string, error) {
			ran.Add(1)
			return saw(ctx, b.Tag, b.Data), nil
		}),
		seamJSONSum.Handle(srv, func(ctx context.Context, b seamJSONBytes) (string, error) {
			ran.Add(1)
			return saw(ctx, "json", b.V), nil
		}),
		seamDouble.Handle(srv, func(_ context.Context, a seamArgs) (int, error) {
			ran.Add(1)
			return 2 * a.N, nil
		}),
		seamPing.Handle(srv, func(context.Context, struct{}) (string, error) {
			ran.Add(1)
			return "pong", nil
		}),
		seamNone.Handle(srv, func(context.Context, seamArgs) ([]string, error) {
			ran.Add(1)
			return nil, nil
		}),
		seamFail.Handle(srv, func(_ context.Context, a seamArgs) (int, error) {
			ran.Add(1)
			return 99, fails[a.N]
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // Serve returns on Close
	t.Cleanup(func() { srv.Close() })
	p := NewPeer(ln.Addr().String(), Options{})
	t.Cleanup(func() { p.Close() })
	ctx := context.Background()

	cases := []struct {
		name string
		run  func(t *testing.T)
		runs int64 // handler executions the case must cause
	}{
		{"a declared method round-trips", func(t *testing.T) {
			if got, err := seamDouble.Call(ctx, p, seamArgs{N: 21}); err != nil || got != 42 {
				t.Errorf("Double(21) = %d, %v; want 42", got, err)
			}
		}, 1},
		{"an Attached Req's bytes ride the attachment, beside its JSON fields", func(t *testing.T) {
			want := fmt.Sprintf("t %d %x attached=%d", len(blob), sha256.Sum256(blob), len(blob))
			if got, err := seamBlobSum.Call(ctx, p, seamBlob{Tag: "t", Data: blob}); err != nil || got != want {
				t.Errorf("BlobSum = %q, %v; want %q", got, err, want)
			}
		}, 1},
		{"an Attached Req with no bytes sends no attachment", func(t *testing.T) {
			want := fmt.Sprintf("empty 0 %x attached=0", sha256.Sum256(nil))
			if got, err := seamBlobSum.Call(ctx, p, seamBlob{Tag: "empty"}); err != nil || got != want {
				t.Errorf("BlobSum = %q, %v; want %q", got, err, want)
			}
		}, 1},
		{"a Req that is not Attached keeps its bytes in the JSON", func(t *testing.T) {
			want := fmt.Sprintf("json %d %x attached=0", len(blob), sha256.Sum256(blob))
			if got, err := seamJSONSum.Call(ctx, p, seamJSONBytes{V: blob}); err != nil || got != want {
				t.Errorf("JSONSum = %q, %v; want %q", got, err, want)
			}
		}, 1},
		{"only Method.Call attaches: a raw Call of the same Req sends its JSON fields alone", func(t *testing.T) {
			var got string
			want := fmt.Sprintf("raw 0 %x attached=0", sha256.Sum256(nil))
			if err := p.Call(ctx, string(seamBlobSum), seamBlob{Tag: "raw", Data: blob}, &got); err != nil || got != want {
				t.Errorf("raw BlobSum = %q, %v; want %q", got, err, want)
			}
		}, 1},
		{"malformed params fail the call, naming the method, before the handler", func(t *testing.T) {
			var out int
			err := p.Call(ctx, string(seamDouble), "not an object", &out)
			var re *wire.RemoteError
			if !errors.As(err, &re) || re.Method != string(seamDouble) || !strings.Contains(err.Error(), "seam.Double") {
				t.Errorf("err = %v (%T), want a *wire.RemoteError naming seam.Double", err, err)
			}
		}, 0},
		{"absent params for a struct Req are malformed too", func(t *testing.T) {
			var out int
			if err := p.Call(ctx, string(seamDouble), nil, &out); err == nil {
				t.Error("absent params decoded into a non-empty Req")
			}
		}, 0},
		{"a zero-size Req accepts absent params", func(t *testing.T) {
			var out string
			if err := p.Call(ctx, string(seamPing), nil, &out); err != nil || out != "pong" {
				t.Errorf("Ping(absent) = %q, %v", out, err)
			}
		}, 1},
		{"a zero-size Req accepts {} params", func(t *testing.T) {
			if got, err := seamPing.Call(ctx, p, struct{}{}); err != nil || got != "pong" {
				t.Errorf("Ping({}) = %q, %v", got, err)
			}
		}, 1},
		{"a zero-size Req does not look at params it was sent", func(t *testing.T) {
			var out string
			if err := p.Call(ctx, string(seamPing), []int{1, 2}, &out); err != nil || out != "pong" {
				t.Errorf("Ping([1,2]) = %q, %v", out, err)
			}
		}, 1},
		{"a nil-slice reply decodes to nil", func(t *testing.T) {
			if got, err := seamNone.Call(ctx, p, seamArgs{}); err != nil || got != nil {
				t.Errorf("None() = %#v, %v; want nil, nil", got, err)
			}
		}, 1},
		{"a handler error passes through, and the reply is the zero Resp", func(t *testing.T) {
			got, err := seamFail.Call(ctx, p, seamArgs{})
			var re *wire.RemoteError
			if !errors.As(err, &re) || re.Msg != fails[0].Error() || re.Code != "" {
				t.Errorf("err = %#v, want the handler's message and no code", err)
			}
			if got != 0 {
				t.Errorf("reply = %d beside an error, want 0", got)
			}
		}, 1},
		{"ctx sentinels survive the seam", func(t *testing.T) {
			for n, sentinel := range fails[1:] {
				if _, err := seamFail.Call(ctx, p, seamArgs{N: n + 1}); !errors.Is(err, sentinel) {
					t.Errorf("err = %v, want errors.Is(%v)", err, sentinel)
				}
			}
		}, 2},
		{"Call never returns a half-decoded reply beside an error", func(t *testing.T) {
			if got, err := seamShort.Call(ctx, halfDecoded{}, struct{}{}); err == nil || got != nil {
				t.Errorf("Call = %v, %v; want nil and the caller's error", got, err)
			}
		}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := ran.Load()
			tc.run(t)
			if got := ran.Load() - before; got != tc.runs {
				t.Errorf("handler ran %d times, want %d", got, tc.runs)
			}
		})
	}
}

// halfDecoded is a Caller that fills the reply and then fails, as wire
// does when a result stops decoding midway.
type halfDecoded struct{}

func (halfDecoded) Call(_ context.Context, _ string, _, reply any) error {
	*reply.(*[]seamArgs) = []seamArgs{{N: 1}}
	return errors.New("decode result: unexpected end of JSON input")
}
