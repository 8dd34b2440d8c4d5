package wire

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"
)

// frameBytes builds a raw frame with an arbitrary length prefix, which
// need not match the body length — that mismatch is exactly what the
// decoder must survive.
func frameBytes(prefix uint32, body []byte) []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], prefix)
	return append(hdr[:], body...)
}

// frameBody is m's frame without its length prefix: m's header, then
// its Body as it is, JSON or not.
func frameBody(m message) []byte {
	f, _ := encode(&m, nil) // no body to marshal: cannot fail
	defer f.free()
	return append(bytes.Clone(f.b[4:]), m.Body...)
}

// attachFrame builds a frame whose header claims an attachment of claim
// bytes and is followed by att, which need not be that long.
func attachFrame(m message, claim int64, att []byte) []byte {
	m.Attach = claim
	body := frameBody(m)
	return append(frameBytes(uint32(len(body)), body), att...)
}

// emptyAttachPools drops every recycled attachment buffer: two collections
// clear a sync.Pool, its victim cache included.
func emptyAttachPools() {
	runtime.GC()
	runtime.GC()
}

// heapAllocated reads the cumulative bytes allocated on the heap without
// stopping the world, as runtime.ReadMemStats would. A large allocation
// (over 32 KiB) counts at once; small ones count when their span leaves
// its cache, so a reading can credit earlier small allocations to now,
// up to every cached span's worth when a collection starts.
func heapAllocated() uint64 {
	s := [1]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64()
}

// allocatedBy returns the bytes fn allocates on the heap, exactly:
// ReadMemStats stops the world and flushes every cache first.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzReadFrame throws corrupt, truncated, and oversized frames at the
// decoder, read as a request (attachment included) and as a response. The
// decoder must never panic, must reject length prefixes beyond maxFrame,
// must account for every header byte it accepts (re-encoding a decoded
// header gives back the same bytes), and — the finding that motivated the
// chunked read — must not allocate prefix-sized buffers for data that
// never arrives: a 4-byte input claiming a 16 MB body, or a 40-byte one
// claiming a 16 MB attachment, should cost roughly nothing. The pools are
// emptied once, before the first input: readRequest puts back only a
// buffer it took from a pool, so every attachment takes the fresh-buffer
// path.
func FuzzReadFrame(f *testing.F) {
	sumReq := message{Kind: kindCall, ID: 1, Text: "sum", Body: []byte(`"x"`)}
	sum := frameBody(sumReq)
	f.Add(frameBytes(uint32(len(sum)), sum))
	f.Add(frameBytes(0, nil))
	f.Add([]byte{0x00})                                           // truncated length prefix
	f.Add(frameBytes(9, sum[:9]))                                 // truncated header, honest length
	f.Add(frameBytes(headerLen+1, sum[:headerLen+1]))             // the method name cut off
	f.Add(frameBytes(100, sum))                                   // length longer than body
	f.Add(frameBytes(1, sum))                                     // length shorter than body
	f.Add(frameBytes(maxFrame+1, nil))                            // oversized prefix, no body
	f.Add(frameBytes(0xffffffff, []byte("x")))                    // absurd prefix
	f.Add(frameBytes(uint32(len(sum)+5), append(sum, "[1,2"...))) // non-JSON params
	f.Add(frameBytes(8, []byte(`{"id":1}`)))                      // wrong shape: a JSON envelope
	bad := bytes.Clone(sum)
	bad[0] = 9
	f.Add(frameBytes(uint32(len(bad)), bad))                                                // wrong shape: an unknown kind
	f.Add(attachFrame(sumReq, 5, []byte("hello")))                                          // honest attachment
	f.Add(attachFrame(sumReq, 5, []byte("hel")))                                            // short attachment
	f.Add(attachFrame(sumReq, 3*readBufCap, make([]byte, readBufCap+1)))                    // cut after the first growth
	f.Add(attachFrame(sumReq, maxFrame, []byte("abc")))                                     // frame + attachment over maxFrame
	f.Add(attachFrame(sumReq, maxFrame-64, []byte("abc")))                                  // in bounds, 16 MB that never arrive
	f.Add(attachFrame(sumReq, -7, []byte("abc")))                                           // negative length
	f.Add(attachFrame(sumReq, math.MaxInt64, []byte("abc")))                                // wraps if added to the frame length
	f.Add(attachFrame(sumReq, math.MaxInt64-int64(len(sum))+1, []byte("abc")))              // wraps to exactly MinInt64
	f.Add(attachFrame(message{Kind: kindCancel, ID: 1}, 3, []byte("abc")))                  // a length field on a cancel frame
	f.Add(attachFrame(message{Kind: kindOK, ID: 1, Body: []byte("1")}, 5, []byte("hello"))) // a length field on a response
	long := frameBody(message{Kind: kindError, ID: 1, Text: "boom"})
	binary.BigEndian.PutUint32(long[25:], 5)
	f.Add(frameBytes(uint32(len(long)), long)) // a text length past the frame

	emptyAttachPools()
	f.Fuzz(func(t *testing.T, data []byte) {
		var req message
		r := bytes.NewReader(data)
		br := bufio.NewReader(r)
		before := heapAllocated()
		p, err := readRequest(br, &req)
		if spent, allowed := heapAllocated()-before, uint64(4*readBufCap+16*len(data)); spent > allowed {
			// The fast reading may hold earlier allocations (see
			// heapAllocated): read the input again, measured exactly.
			again, m := bufio.NewReader(bytes.NewReader(data)), new(message)
			if spent = allocatedBy(func() { readRequest(again, m) }); spent > allowed { //nolint:errcheck // the first read's error is checked
				t.Fatalf("allocated %d bytes reading a %d-byte input (allowed %d): memory reserved for bytes that never arrived", spent, len(data), allowed)
			}
		}
		consumed := data[:len(data)-r.Len()-br.Buffered()]
		var att []byte
		if p != nil {
			att = *p
		}
		if err == nil {
			n := binary.BigEndian.Uint32(data)
			if int64(len(att)) != req.Attach || int64(len(consumed)) != 4+int64(n)+req.Attach || !bytes.HasSuffix(consumed, att) {
				t.Fatalf("claimed %d attached bytes, returned %d, consumed %d of %d", req.Attach, len(att), len(consumed), len(data))
			}
			if req.Kind > kindCancel || !bytes.Equal(frameBody(req), data[4:4+n]) {
				t.Fatalf("decoded %+v from a request frame %q", req, data[4:4+n])
			}
		}
		// A response has no attachment: whatever its header claims, it
		// consumes its frame and no more.
		var resp message
		r.Reset(data)
		br.Reset(r)
		body, rerr := readFrame(br)
		if rerr == nil && len(data)-r.Len()-br.Buffered() != 4+len(body) {
			t.Fatalf("a response frame of %d bytes consumed %d", 4+len(body), len(data)-r.Len()-br.Buffered())
		}
		if rerr == nil && decode(body, &resp, kindOK, kindCanceled) == nil {
			if resp.Kind < kindOK || !bytes.Equal(frameBody(resp), body) {
				t.Fatalf("decoded %+v from a response frame %q", resp, body)
			}
		}
		if len(data) < 4 {
			if err == nil {
				t.Fatal("decoded a frame from a truncated header")
			}
			return
		}
		n := binary.BigEndian.Uint32(data[:4])
		switch {
		case n > maxFrame:
			if err == nil {
				t.Fatalf("accepted oversized frame (%d bytes)", n)
			}
		case uint32(len(data)-4) < n:
			if err == nil {
				t.Fatalf("decoded a frame missing %d body bytes", n-uint32(len(data)-4))
			}
			if err == io.EOF {
				// A frame cut off mid-body must be distinguishable from a
				// clean end-of-stream, or reconnect logic would treat
				// half a message as a graceful close.
				t.Fatal("short body reported as clean EOF")
			}
		case err == nil && req.Attach != 0 && req.Attach > maxFrame-int64(n):
			t.Fatalf("accepted a %d-byte frame with %d attached, over maxFrame", n, req.Attach)
		case err == io.EOF:
			t.Fatal("a stream cut inside the attachment reported as clean EOF")
		}
	})
}

// TestFrameRoundTrip: encoding a request or a response and decoding the
// frame gives back every field, at the edges of each field's range, and
// each side refuses the other's frames.
func TestFrameRoundTrip(t *testing.T) {
	roundTrip := func(m message, v any, first, last byte) (message, error) {
		f, err := encode(&m, v)
		if err != nil {
			return message{}, err
		}
		defer f.free()
		body, err := readFrame(bufio.NewReader(bytes.NewReader(f.b)))
		var got message
		if err == nil {
			err = decode(body, &got, first, last)
		}
		return got, err
	}
	same := func(a, b message) bool {
		return a.Kind == b.Kind && a.ID == b.ID && a.Timeout == b.Timeout && a.Attach == b.Attach && a.Text == b.Text && bytes.Equal(a.Body, b.Body)
	}
	for _, want := range []message{
		{Kind: kindCall, ID: 1, Text: "echo", Body: []byte(`{"msg":"hi"}`)},
		{Kind: kindCall, ID: 1<<64 - 1, Text: strings.Repeat("m", 300), Timeout: 1<<63 - 1, Attach: maxFrame - 400, Body: []byte(`[1,2,3]`)},
		{Kind: kindCall, ID: 9, Text: "void", Timeout: 1},
		{Kind: kindCancel, ID: 9},
	} {
		var params any
		if want.Body != nil {
			params = want.Body
		}
		if got, err := roundTrip(want, params, kindCall, kindCancel); err != nil || !same(got, want) {
			t.Errorf("request %+v came back as %+v, %v", want, got, err)
		}
		if _, err := roundTrip(want, params, kindOK, kindCanceled); err == nil {
			t.Errorf("request %+v decoded as a response", want)
		}
	}
	for _, tc := range []struct {
		result any
		err    error
		want   message
	}{
		{"ok", nil, message{Kind: kindOK, Body: []byte(`"ok"`)}},
		{nil, nil, message{Kind: kindOK}},
		{"dropped", errors.New("boom"), message{Kind: kindError, Text: "boom"}},
		{nil, errors.New(""), message{Kind: kindError}},
		{nil, fmt.Errorf("late: %w", context.DeadlineExceeded), message{Kind: kindDeadline, Text: "late: context deadline exceeded"}},
		{nil, context.Canceled, message{Kind: kindCanceled, Text: "context canceled"}},
		{math.Inf(1), nil, message{Kind: kindError, Text: "marshal result: json: unsupported value: +Inf"}},
	} {
		f := encodeResponse(3, tc.result, tc.err)
		body, err := readFrame(bufio.NewReader(bytes.NewReader(f.b)))
		f.free()
		var got message
		if err == nil {
			err = decode(body, &got, kindOK, kindCanceled)
		}
		if tc.want.ID = 3; err != nil || !same(got, tc.want) {
			t.Errorf("response (%v, %v) came back as %+v, %v; want %+v", tc.result, tc.err, got, err, tc.want)
		}
		if err := decode(body, &got, kindCall, kindCancel); err == nil {
			t.Errorf("response %+v decoded as a request", tc.want)
		}
	}
}

// TestReadFrameShortBody pins the truncation semantics outside the
// fuzzer: a clean EOF at a frame boundary is io.EOF, mid-header is
// io.ErrUnexpectedEOF, and mid-body is io.ErrUnexpectedEOF.
func TestReadFrameShortBody(t *testing.T) {
	read := func(b []byte) error {
		_, err := readFrame(bufio.NewReader(bytes.NewReader(b)))
		return err
	}
	if err := read(nil); err != io.EOF {
		t.Errorf("empty stream: got %v, want io.EOF", err)
	}
	if err := read([]byte{0, 0}); err != io.ErrUnexpectedEOF {
		t.Errorf("mid-header cut: got %v, want io.ErrUnexpectedEOF", err)
	}
	if err := read(frameBytes(10, []byte("abc"))); err != io.ErrUnexpectedEOF {
		t.Errorf("mid-body cut: got %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestReadFrameAllocations pins what reading a control-sized request
// costs: the body slice, of exactly the announced size, and the method
// string. The length prefix is peeked in the reader's buffer and the
// params are a sub-slice of the body.
func TestReadFrameAllocations(t *testing.T) {
	body := frameBody(message{Kind: kindCall, ID: 7, Text: "fs.Finished", Timeout: 1e9, Body: []byte(`{"flowIds":[1234567]}`)})
	frame := frameBytes(uint32(len(body)), body)
	r := bytes.NewReader(frame)
	br := bufio.NewReader(r)
	var req message
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(frame)
		br.Reset(r)
		if _, err := readRequest(br, &req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("readRequest of a %d-byte frame: %v allocations, want at most 2 (the body and the method name)", len(body), allocs)
	}
}
