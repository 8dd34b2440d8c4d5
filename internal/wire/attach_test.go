package wire

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// maxAppend is dataserver.MaxAppend, the largest attachment the system
// sends (wire cannot import dataserver).
const maxAppend = 8 << 20

// pattern is n bytes that differ at every offset a shifted or interleaved
// copy could land on.
func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i>>8)
	}
	return b
}

type attachReply struct {
	Tag string `json:"tag"` // the JSON params, echoed
	N   int    `json:"n"`   // len(Attachment(ctx))
	Sum string `json:"sum"` // its sha256
	Nil bool   `json:"nil"` // no attachment context value at all
}

func sum(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// TestAttachmentFrame is the request frame's raw attachment, case by
// case, against one live server: what arrives, what a frame without one
// looks like, how it multiplexes, fails, cancels, overflows and tears.
func TestAttachmentFrame(t *testing.T) {
	var ran atomic.Int64 // handler executions
	entered := make(chan []byte, 1)
	stopped := make(chan error, 1)
	s := NewServer()
	mustRegister(t, s, "sum", func(ctx context.Context, params json.RawMessage) (any, error) {
		ran.Add(1)
		var tag string
		if err := json.Unmarshal(params, &tag); err != nil {
			return nil, err
		}
		att := Attachment(ctx)
		return attachReply{Tag: tag, N: len(att), Sum: sum(att), Nil: att == nil}, nil
	})
	mustRegister(t, s, "fail", func(ctx context.Context, _ json.RawMessage) (any, error) {
		ran.Add(1)
		return nil, fmt.Errorf("boom after %d attached bytes", len(Attachment(ctx)))
	})
	mustRegister(t, s, "hang", func(ctx context.Context, _ json.RawMessage) (any, error) {
		ran.Add(1)
		entered <- Attachment(ctx)
		<-ctx.Done()
		stopped <- ctx.Err()
		return nil, ctx.Err()
	})
	var onward *Client // "forward" calls "sum" through it, under its own context
	mustRegister(t, s, "forward", func(ctx context.Context, _ json.RawMessage) (any, error) {
		var got attachReply
		err := onward.Call(ctx, "sum", fmt.Sprint(len(Attachment(ctx))), &got)
		return got, err
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln) //nolint:errcheck // Serve returns on Close
	defer s.Close()
	addr := ln.Addr().String()
	c, bg := dial(t, addr), context.Background()
	onward = dial(t, addr)

	// call sends att behind a "sum" request and checks what the handler saw.
	call := func(c *Client, tag string, att []byte) error {
		var got attachReply
		if err := c.Call(WithAttachment(bg, att), "sum", tag, &got); err != nil {
			return err
		}
		if want := (attachReply{Tag: tag, N: len(att), Sum: sum(att), Nil: len(att) == 0}); got != want {
			return fmt.Errorf("handler saw %+v, want %+v", got, want)
		}
		return nil
	}
	// rawConn is a bare connection for frames no Client would send.
	rawConn := func(t *testing.T, frame []byte) net.Conn {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		return conn
	}
	// closedByServer: the server hung up on conn without answering.
	closedByServer := func(t *testing.T, conn net.Conn) {
		t.Helper()
		conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck // a TCP conn takes a deadline
		// EOF, or a reset when the server closed with bytes of ours unread.
		if n, err := conn.Read(make([]byte, 1)); n != 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("read = %d, %v; want the server to close the connection unanswered", n, err)
		}
	}

	for _, size := range []int{0, 1, readBufCap - 1, readBufCap, 256 << 10, maxAppend} {
		t.Run(fmt.Sprintf("%d bytes arrive verbatim", size), func(t *testing.T) {
			if err := call(c, "sized", pattern(size)); err != nil {
				t.Error(err)
			}
		})
	}

	t.Run("a frame without an attachment is the bare frame", func(t *testing.T) {
		var plain, empty bytes.Buffer
		var mu sync.Mutex
		req := message{Kind: kindCall, ID: 7, Text: "m", Timeout: 5 * time.Millisecond}
		f, err := encode(&req, json.RawMessage(`{"a":1}`))
		if err != nil {
			t.Fatal(err)
		}
		defer f.free()
		want := frameBytes(headerLen+1+7, []byte{kindCall, 0, 0, 0, 0, 0, 0, 0, 7}) // kind, id
		want = binary.BigEndian.AppendUint64(want, uint64(5*time.Millisecond))
		want = append(want, make([]byte, 8)...)                    // no attachment
		want = append(append(want, 0, 0, 0, 1, 'm'), `{"a":1}`...) // method, params
		if err := writeFrame(&plain, &mu, f.b, nil, true); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(plain.Bytes(), want) {
			t.Errorf("frame = %q, want %q", plain.Bytes(), want)
		}
		if err := writeFrame(&empty, &mu, f.b, []byte{}, true); err != nil || !bytes.Equal(empty.Bytes(), plain.Bytes()) {
			t.Errorf("an empty attachment changed the frame (%v): %q", err, empty.Bytes())
		}
	})

	t.Run("small calls beside large attachments on one session stay intact", func(t *testing.T) {
		big := pattern(maxAppend)
		var wg sync.WaitGroup
		errs := make(chan error, 3+64)
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs <- call(c, "big", big)
			}()
		}
		for i := 0; i < 64; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				// Every other small call carries a small attachment of its own.
				errs <- call(c, fmt.Sprintf("small-%d", i), pattern(i%2*(100+i)))
			}(i)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Error(err)
			}
		}
	})

	t.Run("an error reply after an attachment leaves the stream in step", func(t *testing.T) {
		err := c.Call(WithAttachment(bg, pattern(100_000)), "fail", nil, nil)
		var re *RemoteError
		if !errors.As(err, &re) || re.Msg != "boom after 100000 attached bytes" {
			t.Errorf("err = %v, want the handler's error", err)
		}
		// A refused request's attachment is consumed too, not parsed as the next frame.
		if err := c.Call(WithAttachment(bg, pattern(100_000)), "nope", nil, nil); !errors.As(err, &re) {
			t.Errorf("unknown method err = %v, want *RemoteError", err)
		}
		if err := call(c, "after", pattern(10)); err != nil {
			t.Errorf("next call on the session: %v", err)
		}
	})

	t.Run("a cancel frame stops a call that carried an attachment", func(t *testing.T) {
		att := pattern(256 << 10)
		ctx, cancel := context.WithCancel(WithAttachment(bg, att))
		errCh := make(chan error, 1)
		go func() { errCh <- c.Call(ctx, "hang", nil, nil) }()
		if got := <-entered; !bytes.Equal(got, att) {
			t.Errorf("handler saw %d attached bytes, want the %d sent", len(got), len(att))
		}
		cancel()
		if err := <-errCh; !errors.Is(err, context.Canceled) {
			t.Errorf("Call err = %v, want Canceled", err)
		}
		select {
		case err := <-stopped:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("handler observed %v, want Canceled (cancel frame)", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("cancel frame did not stop the handler")
		}
		if err := call(c, "after-cancel", nil); err != nil {
			t.Errorf("next call on the session: %v", err)
		}
	})

	t.Run("a handler's context does not forward its attachment", func(t *testing.T) {
		var got attachReply
		if err := c.Call(WithAttachment(bg, pattern(1000)), "forward", nil, &got); err != nil {
			t.Fatal(err)
		}
		if want := (attachReply{Tag: "1000", Sum: sum(nil), Nil: true}); got != want {
			t.Errorf("the onward call's handler saw %+v, want %+v", got, want)
		}
	})

	t.Run("envelope plus attachment over maxFrame: the client refuses to send", func(t *testing.T) {
		before := ran.Load()
		err := c.Call(WithAttachment(bg, make([]byte, maxFrame)), "sum", "x", nil)
		var ue *UnsentError
		if !errors.As(err, &ue) || !strings.Contains(err.Error(), "too large") {
			t.Errorf("err = %v, want an unsent frame-too-large error", err)
		}
		if err := call(c, "after-refusal", nil); err != nil || ran.Load() != before+1 {
			t.Errorf("session after the refusal: %v (%d handler runs)", err, ran.Load()-before)
		}
	})

	t.Run("envelope plus attachment over maxFrame: the server hangs up", func(t *testing.T) {
		before := ran.Load()
		req := message{Kind: kindCall, ID: 1, Text: "sum", Body: json.RawMessage(`"x"`)}
		// The last two claims wrap to negative if added to the frame length.
		for _, claim := range []int64{maxFrame, -1, math.MaxInt64, math.MaxInt64 - int64(len(frameBody(req))) + 1} {
			closedByServer(t, rawConn(t, attachFrame(req, claim, []byte("abc"))))
		}
		if got := ran.Load() - before; got != 0 {
			t.Errorf("handler ran %d times for an oversized claim", got)
		}
	})

	t.Run("a stream cut mid-attachment is io.ErrUnexpectedEOF and runs no handler", func(t *testing.T) {
		req := message{Kind: kindCall, ID: 1, Text: "sum", Body: json.RawMessage(`"x"`)}
		att := pattern(3 * readBufCap)
		for _, sent := range []int{0, 1, readBufCap, readBufCap + 1, len(att) - 1} {
			var got message
			_, err := readRequest(bufio.NewReader(bytes.NewReader(attachFrame(req, int64(len(att)), att[:sent]))), &got)
			if err != io.ErrUnexpectedEOF {
				t.Errorf("%d of %d attached bytes: err = %v, want io.ErrUnexpectedEOF", sent, len(att), err)
			}
		}
		before := ran.Load()
		conn := rawConn(t, attachFrame(req, int64(len(att)), att[:len(att)/2]))
		conn.(*net.TCPConn).CloseWrite() //nolint:errcheck // the cut under test
		closedByServer(t, conn)
		if got := ran.Load() - before; got != 0 {
			t.Errorf("handler ran %d times on half an attachment", got)
		}
	})
}

// serveAttached serves one "sum" method that checks its attachment stays
// put while the handler runs, and returns a client on one session to it.
func serveAttached(t *testing.T) *Client {
	s := NewServer()
	mustRegister(t, s, "sum", func(ctx context.Context, params json.RawMessage) (any, error) {
		att := Attachment(ctx)
		first := sum(att)
		runtime.Gosched() // let the other calls' buffers come and go
		if sum(att) != first {
			return nil, errors.New("attachment changed under its handler")
		}
		return first, nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln) //nolint:errcheck // Serve returns on Close
	t.Cleanup(func() { s.Close() })
	return dial(t, ln.Addr().String())
}

// TestConcurrentAttachmentsKeepTheirBytes puts 8 attached calls with
// distinct payloads on one session at once, round after round, so receive
// buffers are recycled between them: each handler sees its own bytes for
// its whole run (and, under -race, no buffer is written while read).
func TestConcurrentAttachmentsKeepTheirBytes(t *testing.T) {
	c := serveAttached(t)
	payloads := make([][]byte, 8)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte(i)}, 256<<10>>(i%2)-i) // two classes, all distinct
	}
	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		for _, p := range payloads {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var got string
				if err := c.Call(WithAttachment(context.Background(), p), "sum", nil, &got); err != nil || got != sum(p) {
					t.Errorf("round %d: handler of a %d-byte call saw sum %.8s, %v; want %.8s", round, len(p), got, err, sum(p))
				}
			}()
		}
		wg.Wait()
	}
}

// TestAttachmentBufferIsReused: steady-state attached calls of one size
// recycle the receive buffer instead of allocating and zeroing a new one.
func TestAttachmentBufferIsReused(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers on purpose")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P's pool, as the benchmark runs
	c := serveAttached(t)
	ctx := WithAttachment(context.Background(), pattern(256<<10))
	call := func() {
		var got string
		if err := c.Call(ctx, "sum", nil, &got); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		call()
	}
	const calls = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		call()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 4<<10 {
		t.Errorf("a 256 KiB attached call allocates %d bytes, want under 4 KiB: the receive buffer is not recycled", per)
	}
}

// TestFreshAttachmentBufferFillsItsClass: with no free buffer, the one an
// attachment grows into is its class's full size, so handing it back
// serves the next attachment of that size whatever the size is.
func TestFreshAttachmentBufferFillsItsClass(t *testing.T) {
	for _, tc := range []struct{ n, cap int }{
		{1, readBufCap}, {readBufCap, readBufCap}, {readBufCap + 1, 2 * readBufCap},
		{100 << 10, 2 * readBufCap}, {256 << 10, 256 << 10}, {1<<20 + 3, 2 << 20},
		{maxAppend, maxAppend}, {maxFrame - 100, maxFrame},
	} {
		emptyAttachPools()
		att := pattern(tc.n)
		var req message
		p, err := readRequest(bufio.NewReader(bytes.NewReader(attachFrame(message{Kind: kindCall, ID: 1, Text: "m"}, int64(tc.n), att))), &req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(*p, att) || cap(*p) != tc.cap {
			t.Errorf("%d attached bytes: %d read into a %d-byte buffer, want them in a %d-byte one", tc.n, len(*p), cap(*p), tc.cap)
		}
	}
	if got := len(attachPools) - 1; readBufCap<<got != maxFrame {
		t.Errorf("the largest class holds %d bytes, want maxFrame", readBufCap<<got)
	}
}
