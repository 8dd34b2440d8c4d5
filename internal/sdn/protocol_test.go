package sdn

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMessageRoundTripProperty(t *testing.T) {
	f := func(typeByte uint8, xid uint32, payload []byte) bool {
		if len(payload) > maxPayload {
			payload = payload[:maxPayload]
		}
		m := message{Type: MsgType(typeByte), Xid: xid, Payload: payload}
		var buf bytes.Buffer
		if err := writeMessage(&buf, m); err != nil {
			return false
		}
		// Short payloads land in the reader's buffer, longer ones in their own.
		got, err := readMessage(&buf, make([]byte, hdrLen+int(typeByte%32)))
		if err != nil {
			return false
		}
		return got.Type == m.Type && got.Xid == m.Xid && bytes.Equal(got.Payload, m.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestReadMessageGarbage feeds random bytes to the frame reader: it must
// either produce a well-formed message or fail cleanly, never panic or
// over-read.
func TestReadMessageGarbage(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		raw := make([]byte, r.Intn(64))
		r.Read(raw)
		_, err := readMessage(bytes.NewReader(raw), make([]byte, flowModLen))
		// Most random frames fail on version or truncation; success is
		// also legal when the bytes happen to form a frame.
		_ = err
	}
}

func TestReadMessageRejects(t *testing.T) {
	// Wrong version.
	var buf bytes.Buffer
	buf.Write([]byte{9, 1, 0, 0, 0, 0, 0, 0, 0, 1})
	if _, err := readMessage(&buf, make([]byte, hdrLen)); err == nil {
		t.Error("wrong version accepted")
	}
	// Oversized payload length.
	buf.Reset()
	buf.Write([]byte{Version, 1, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 1})
	if _, err := readMessage(&buf, make([]byte, hdrLen)); err == nil {
		t.Error("oversized payload accepted")
	}
	// Truncated payload.
	buf.Reset()
	buf.Write([]byte{Version, 1, 0, 0, 0, 10, 0, 0, 0, 1, 'x'})
	if _, err := readMessage(&buf, make([]byte, hdrLen)); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated payload err = %v", err)
	}
	// Oversized write is refused.
	if err := writeMessage(io.Discard, message{Payload: make([]byte, maxPayload+1)}); err == nil {
		t.Error("oversized write accepted")
	}
}

func TestStatsCodecsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ps := make([]PortStat, r.Intn(20))
		for i := range ps {
			ps[i] = PortStat{Port: r.Uint32(), TxBytes: r.Uint64()}
		}
		got, err := decodePortStats(encodePortStats(ps))
		if err != nil || len(got) != len(ps) {
			return false
		}
		for i := range ps {
			if got[i] != ps[i] {
				return false
			}
		}
		fsStats := make([]FlowStat, r.Intn(20))
		for i := range fsStats {
			fsStats[i] = FlowStat{FlowID: r.Uint64(), ByteCount: r.Uint64()}
		}
		gotF, err := decodeFlowStats(encodeFlowStats(fsStats))
		if err != nil || len(gotF) != len(fsStats) {
			return false
		}
		for i := range fsStats {
			if gotF[i] != fsStats[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

// TestFlowModRoundTrip pins the FlowMod frame byte for byte: the frame the
// controller builds in its scratch is what the protocol always sent, and
// a switch decodes it from its own buffer.
func TestFlowModRoundTrip(t *testing.T) {
	frame := appendFlowMod(nil, FlowMod{Switch: 7, Cmd: FlowDelete, FlowID: 0xdeadbeefcafe, OutPort: 42})
	want := []byte{Version, byte(TypeFlowMod), 0, 0, 0, 13, 0, 0, 0, 0, // header, xid 0
		FlowDelete, 0, 0, 0xde, 0xad, 0xbe, 0xef, 0xca, 0xfe, 0, 0, 0, 42}
	if !bytes.Equal(frame, want) {
		t.Fatalf("FlowMod frame = % x, want % x", frame, want)
	}
	m, err := readMessage(bytes.NewReader(frame), make([]byte, flowModLen))
	if err != nil || m.Type != TypeFlowMod || m.Xid != 0 {
		t.Fatalf("read back %+v, %v", m, err)
	}
	cmd, id, port, err := decodeFlowMod(m.Payload)
	if err != nil || cmd != FlowDelete || id != 0xdeadbeefcafe || port != 42 {
		t.Errorf("round trip = %d %d %d %v", cmd, id, port, err)
	}
	dp, err := decodeHello(encodeHello(777))
	if err != nil || dp != 777 {
		t.Errorf("hello round trip = %d %v", dp, err)
	}
}
