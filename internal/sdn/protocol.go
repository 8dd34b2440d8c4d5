// Package sdn is a minimal OpenFlow-style software-defined networking
// control plane: software switches that dial a central controller, a
// binary wire protocol carrying flow-table modifications and counter
// queries, and a controller API the Mayflower Flowserver drives (§3.3.3,
// §5 of the paper).
//
// The protocol is deliberately a small subset of OpenFlow 1.0 — the paper
// only needs rule installation plus per-port and per-flow byte counters.
// Reproduction note: Go had no maintained OpenFlow controller library, so
// this package fills that gap with the narrow interface Mayflower uses.
//
// Message layout (big endian):
//
//	header:  version(1)=1  type(1)  payloadLen(4)  xid(4)
//	HELLO:         datapathID(8)
//	FLOW_MOD:      command(1: 1=add, 2=delete)  flowID(8)  outPort(4)
//	PORT_STATS_REQUEST:  (empty)
//	PORT_STATS_REPLY:    count(4) { port(4) txBytes(8) }*
//	FLOW_STATS_REQUEST:  (empty)
//	FLOW_STATS_REPLY:    count(4) { flowID(8) byteCount(8) }*
//	ECHO_REQUEST/REPLY:  opaque payload
//	ERROR:         code(2)  message(rest)
//
// Like OpenFlow, switches initiate the TCP connection to the controller
// and announce themselves with HELLO; the controller matches replies to
// requests by transaction id (xid).
package sdn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// Version is the protocol version carried in every header.
const Version = 1

// MsgType identifies a protocol message.
type MsgType uint8

// Protocol message types.
const (
	TypeHello MsgType = iota + 1
	TypeFlowMod
	TypePortStatsRequest
	TypePortStatsReply
	TypeFlowStatsRequest
	TypeFlowStatsReply
	_ // 7 and 8 were an echo request and reply; the numbers stay reserved
	_
	TypeError
)

// FlowMod commands.
const (
	FlowAdd    = uint8(1)
	FlowDelete = uint8(2)
)

// maxPayload bounds a message payload against corrupt headers.
const maxPayload = 1 << 20

// ErrBadMessage is returned when a frame cannot be decoded.
var ErrBadMessage = errors.New("sdn: malformed message")

// message is one decoded protocol frame.
type message struct {
	Type    MsgType
	Xid     uint32
	Payload []byte
}

// hdrLen is a frame's header; flowModLen is a whole FlowMod frame.
const (
	hdrLen     = 10
	flowModLen = hdrLen + 13
)

func putHeader(b []byte, t MsgType, payloadLen int, xid uint32) {
	b[0] = Version
	b[1] = byte(t)
	binary.BigEndian.PutUint32(b[2:6], uint32(payloadLen))
	binary.BigEndian.PutUint32(b[6:10], xid)
}

func writeMessage(w io.Writer, m message) error {
	if len(m.Payload) > maxPayload {
		return fmt.Errorf("sdn: payload too large (%d)", len(m.Payload))
	}
	frame := make([]byte, hdrLen, hdrLen+len(m.Payload))
	putHeader(frame, m.Type, len(m.Payload), m.Xid)
	_, err := w.Write(append(frame, m.Payload...))
	return err
}

// readMessage reads one frame. buf (at least hdrLen bytes) takes its
// header, and its payload too when that fits: the payload then aliases
// buf until the next read. A larger payload gets a slice of its own.
func readMessage(r io.Reader, buf []byte) (message, error) {
	hdr := buf[:hdrLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return message{}, err
	}
	if hdr[0] != Version {
		return message{}, fmt.Errorf("%w: version %d", ErrBadMessage, hdr[0])
	}
	n := binary.BigEndian.Uint32(hdr[2:6])
	if n > maxPayload {
		return message{}, fmt.Errorf("%w: payload length %d", ErrBadMessage, n)
	}
	payload := slices.Grow(buf[hdrLen:hdrLen], int(n))[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return message{}, err
	}
	return message{Type: MsgType(hdr[1]), Xid: binary.BigEndian.Uint32(hdr[6:10]), Payload: payload}, nil
}

// PortStat is one port's transmit byte counter.
type PortStat struct {
	Port    uint32
	TxBytes uint64
}

// FlowStat is one flow table entry's byte counter.
type FlowStat struct {
	FlowID    uint64
	ByteCount uint64
}

func encodeHello(dpid uint64) []byte {
	buf := make([]byte, 8)
	binary.BigEndian.PutUint64(buf, dpid)
	return buf
}

func decodeHello(p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, ErrBadMessage
	}
	return binary.BigEndian.Uint64(p), nil
}

// FlowMod is one rule change on switch Switch (a datapath id): add
// (FlowAdd) the rule sending flow FlowID out of OutPort, or delete it.
type FlowMod struct {
	Switch  uint64
	Cmd     uint8
	FlowID  uint64
	OutPort uint32
}

// appendFlowMod appends m's whole frame (xid 0), flowModLen bytes, to b.
func appendFlowMod(b []byte, m FlowMod) []byte {
	b = append(b, make([]byte, hdrLen)...)
	putHeader(b[len(b)-hdrLen:], TypeFlowMod, flowModLen-hdrLen, 0)
	b = binary.BigEndian.AppendUint64(append(b, m.Cmd), m.FlowID)
	return binary.BigEndian.AppendUint32(b, m.OutPort)
}

func decodeFlowMod(p []byte) (cmd uint8, flowID uint64, outPort uint32, err error) {
	if len(p) != 13 {
		return 0, 0, 0, ErrBadMessage
	}
	return p[0], binary.BigEndian.Uint64(p[1:9]), binary.BigEndian.Uint32(p[9:13]), nil
}

func encodePortStats(stats []PortStat) []byte {
	buf := make([]byte, 4+12*len(stats))
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(stats)))
	off := 4
	for _, s := range stats {
		binary.BigEndian.PutUint32(buf[off:off+4], s.Port)
		binary.BigEndian.PutUint64(buf[off+4:off+12], s.TxBytes)
		off += 12
	}
	return buf
}

func decodePortStats(p []byte) ([]PortStat, error) {
	if len(p) < 4 {
		return nil, ErrBadMessage
	}
	n := binary.BigEndian.Uint32(p[0:4])
	if uint32(len(p)-4) != n*12 {
		return nil, ErrBadMessage
	}
	stats := make([]PortStat, n)
	off := 4
	for i := range stats {
		stats[i] = PortStat{
			Port:    binary.BigEndian.Uint32(p[off : off+4]),
			TxBytes: binary.BigEndian.Uint64(p[off+4 : off+12]),
		}
		off += 12
	}
	return stats, nil
}

func encodeFlowStats(stats []FlowStat) []byte {
	buf := make([]byte, 4+16*len(stats))
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(stats)))
	off := 4
	for _, s := range stats {
		binary.BigEndian.PutUint64(buf[off:off+8], s.FlowID)
		binary.BigEndian.PutUint64(buf[off+8:off+16], s.ByteCount)
		off += 16
	}
	return buf
}

func decodeFlowStats(p []byte) ([]FlowStat, error) {
	if len(p) < 4 {
		return nil, ErrBadMessage
	}
	n := binary.BigEndian.Uint32(p[0:4])
	if uint32(len(p)-4) != n*16 {
		return nil, ErrBadMessage
	}
	stats := make([]FlowStat, n)
	off := 4
	for i := range stats {
		stats[i] = FlowStat{
			FlowID:    binary.BigEndian.Uint64(p[off : off+8]),
			ByteCount: binary.BigEndian.Uint64(p[off+8 : off+16]),
		}
		off += 16
	}
	return stats, nil
}

func encodeError(code uint16, msg string) []byte {
	buf := make([]byte, 2+len(msg))
	binary.BigEndian.PutUint16(buf[0:2], code)
	copy(buf[2:], msg)
	return buf
}

func decodeError(p []byte) (uint16, string, error) {
	if len(p) < 2 {
		return 0, "", ErrBadMessage
	}
	return binary.BigEndian.Uint16(p[0:2]), string(p[2:]), nil
}
