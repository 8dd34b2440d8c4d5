package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"runtime"
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

// emptyAttachPools drops every recycled attachment buffer: two collections
// clear a sync.Pool, its victim cache included.
func emptyAttachPools() {
	runtime.GC()
	runtime.GC()
}

// FuzzReadFrame throws corrupt, truncated, and oversized frames at the
// decoder, attachment included. The decoder must never panic, must reject
// length prefixes beyond maxFrame, and — the finding that motivated the
// chunked read — must not allocate prefix-sized buffers for data that
// never arrives: a 4-byte input claiming a 16 MB body, or a 40-byte one
// claiming a 16 MB attachment, should cost roughly nothing. The pools are
// emptied first, so an attachment always takes the fresh-buffer path.
func FuzzReadFrame(f *testing.F) {
	f.Add(frameBytes(2, []byte(`{}`)))
	f.Add(frameBytes(0, nil))
	f.Add(frameBytes(5, []byte(`{"id"`)))      // truncated JSON, honest length
	f.Add(frameBytes(100, []byte(`{}`)))       // length longer than body
	f.Add(frameBytes(1, []byte(`{"id":1}`)))   // length shorter than body
	f.Add(frameBytes(maxFrame+1, nil))         // oversized prefix, no body
	f.Add(frameBytes(0xffffffff, []byte("x"))) // absurd prefix
	f.Add(frameBytes(7, []byte("not json")))   // non-JSON body
	f.Add([]byte{0x00})                        // truncated header
	f.Add(frameBytes(3, []byte(`123`)))        // JSON, wrong shape
	sumReq := request{ID: 1, Method: "sum", Params: json.RawMessage(`"x"`)}
	f.Add(attachFrame(f, sumReq, 5, []byte("hello")))                       // honest attachment
	f.Add(attachFrame(f, sumReq, 5, []byte("hel")))                         // short attachment
	f.Add(attachFrame(f, sumReq, 3*readBufCap, make([]byte, readBufCap+1))) // cut after the first growth
	f.Add(attachFrame(f, sumReq, maxFrame, []byte("abc")))                  // envelope + attachment over maxFrame
	f.Add(attachFrame(f, sumReq, maxFrame-64, []byte("abc")))               // in bounds, 16 MB that never arrive
	f.Add(attachFrame(f, sumReq, -7, []byte("abc")))                        // negative length
	f.Add(attachFrame(f, request{ID: 1, Cancel: true}, 3, []byte("abc")))   // a length field on a cancel frame
	f.Add(frameBytes(21, []byte(`{"id":1,"attach":"5"}hello`)))             // a length of the wrong type
	f.Add(frameBytes(30, []byte(`{"id":1,"result":1,"attach":5}`)))         // a length field on a response

	f.Fuzz(func(t *testing.T, data []byte) {
		var req request
		var before, after runtime.MemStats
		emptyAttachPools()
		runtime.ReadMemStats(&before)
		r := bytes.NewReader(data)
		p, err := readRequest(r, &req)
		runtime.ReadMemStats(&after)
		if spent, allowed := after.TotalAlloc-before.TotalAlloc, uint64(4*readBufCap+16*len(data)); spent > allowed {
			t.Fatalf("allocated %d bytes reading a %d-byte input (allowed %d): memory reserved for bytes that never arrived", spent, len(data), allowed)
		}
		var att []byte
		if p != nil {
			att = *p
		}
		if err == nil && (int64(len(att)) != req.Attach || !bytes.HasSuffix(data[:len(data)-r.Len()], att)) {
			t.Fatalf("claimed %d attached bytes, returned %d, consumed %d of %d", req.Attach, len(att), len(data)-r.Len(), len(data))
		}
		// A response has no attachment: a length field there consumes nothing.
		var resp response
		r.Reset(data)
		if n, err := readFrame(r, &resp); err == nil && len(data)-r.Len() != 4+int(n) {
			t.Fatalf("a response frame of %d bytes consumed %d", 4+n, len(data)-r.Len())
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
		case err == nil && req.Attach != 0 && int64(n)+req.Attach > maxFrame:
			t.Fatalf("accepted a %d-byte envelope with %d attached, over maxFrame", n, req.Attach)
		case err == io.EOF:
			t.Fatal("a stream cut inside the attachment reported as clean EOF")
		}
	})
}

// TestReadFrameShortBody pins the truncation semantics outside the
// fuzzer: a clean EOF at a frame boundary is io.EOF, mid-header is
// io.ErrUnexpectedEOF, and mid-body is io.ErrUnexpectedEOF.
func TestReadFrameShortBody(t *testing.T) {
	var req request
	if _, err := readFrame(bytes.NewReader(nil), &req); err != io.EOF {
		t.Errorf("empty stream: got %v, want io.EOF", err)
	}
	if _, err := readFrame(bytes.NewReader([]byte{0, 0}), &req); err != io.ErrUnexpectedEOF {
		t.Errorf("mid-header cut: got %v, want io.ErrUnexpectedEOF", err)
	}
	if _, err := readFrame(bytes.NewReader(frameBytes(10, []byte("abc"))), &req); err != io.ErrUnexpectedEOF {
		t.Errorf("mid-body cut: got %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestReadFrameAllocations pins what reading a control-sized frame costs
// beyond decoding it: the 4-byte prefix and one body slice of exactly the
// announced size. (bytes.Buffer.ReadFrom used to regrow the body for its
// 512-byte read-ahead before and after it: five allocations, not two.)
func TestReadFrameAllocations(t *testing.T) {
	body := []byte(`{"id":7,"method":"fs.Finished","params":{"flowIds":[1234567]}}`)
	frame := frameBytes(uint32(len(body)), body)
	r := bytes.NewReader(frame)
	var req request
	read := testing.AllocsPerRun(100, func() {
		r.Reset(frame)
		req = request{}
		if _, err := readFrame(r, &req); err != nil {
			t.Fatal(err)
		}
	})
	decode := testing.AllocsPerRun(100, func() {
		req = request{}
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatal(err)
		}
	})
	if read > decode+2 {
		t.Errorf("readFrame of a %d-byte frame: %v allocations, json.Unmarshal alone %v; want at most 2 more", len(body), read, decode)
	}
}
