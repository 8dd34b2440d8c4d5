package sdn

import (
	"errors"
	"fmt"
	"net"
	"sync"
)

// Switch is a software OpenFlow-style switch agent. It holds a flow table
// and byte counters, dials the controller, and answers FlowMod and stats
// messages. The data plane (package emunet) credits bytes to its counters
// as transfers progress, exactly as a hardware switch's ASIC would bump
// counters as frames pass through.
type Switch struct {
	dpid uint64

	mu      sync.Mutex
	flows   map[uint64]uint32 // flowID → out port
	flowTx  map[uint64]uint64 // flowID → bytes forwarded
	portTx  map[uint32]uint64 // port → bytes transmitted
	conn    net.Conn
	closed  bool
	writeMu sync.Mutex
	done    chan struct{}
}

// NewSwitch creates a switch agent with the given datapath id.
func NewSwitch(dpid uint64) *Switch {
	return &Switch{
		dpid:   dpid,
		flows:  make(map[uint64]uint32),
		flowTx: make(map[uint64]uint64),
		portTx: make(map[uint32]uint64),
		done:   make(chan struct{}),
	}
}

// DatapathID returns the switch's identity.
func (sw *Switch) DatapathID() uint64 { return sw.dpid }

// Connect dials the controller at addr, sends HELLO, and starts serving
// control messages in the background until Close or connection loss.
func (sw *Switch) Connect(addr string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("sdn: switch %d dial: %w", sw.dpid, err)
	}
	sw.mu.Lock()
	if sw.closed {
		sw.mu.Unlock()
		conn.Close()
		return errors.New("sdn: switch closed")
	}
	if sw.conn != nil {
		sw.mu.Unlock()
		conn.Close()
		return errors.New("sdn: switch already connected")
	}
	sw.conn = conn
	sw.mu.Unlock()

	if err := writeMessage(conn, message{Type: TypeHello, Payload: encodeHello(sw.dpid)}); err != nil {
		conn.Close()
		return fmt.Errorf("sdn: switch %d hello: %w", sw.dpid, err)
	}
	go sw.serve(conn)
	return nil
}

func (sw *Switch) serve(conn net.Conn) {
	defer close(sw.done)
	// Only FlowMods and stats requests arrive, and neither keeps its
	// payload past handle, so one buffer serves every message.
	buf := make([]byte, flowModLen)
	for {
		m, err := readMessage(conn, buf)
		if err != nil {
			return
		}
		sw.handle(conn, m)
	}
}

func (sw *Switch) handle(conn net.Conn, m message) {
	reply := func(t MsgType, payload []byte) {
		sw.writeMu.Lock()
		defer sw.writeMu.Unlock()
		_ = writeMessage(conn, message{Type: t, Xid: m.Xid, Payload: payload})
	}
	switch m.Type {
	case TypeFlowMod:
		cmd, flowID, outPort, err := decodeFlowMod(m.Payload)
		if err != nil {
			reply(TypeError, encodeError(1, err.Error()))
			return
		}
		sw.mu.Lock()
		switch cmd {
		case FlowAdd:
			sw.flows[flowID] = outPort
		case FlowDelete:
			delete(sw.flows, flowID)
			delete(sw.flowTx, flowID)
		}
		sw.mu.Unlock()
		// FlowMod is fire-and-forget, like OpenFlow (no barrier support).
	case TypePortStatsRequest:
		sw.mu.Lock()
		stats := make([]PortStat, 0, len(sw.portTx))
		for p, tx := range sw.portTx {
			stats = append(stats, PortStat{Port: p, TxBytes: tx})
		}
		sw.mu.Unlock()
		reply(TypePortStatsReply, encodePortStats(stats))
	case TypeFlowStatsRequest:
		sw.mu.Lock()
		stats := make([]FlowStat, 0, len(sw.flowTx))
		for f, tx := range sw.flowTx {
			stats = append(stats, FlowStat{FlowID: f, ByteCount: tx})
		}
		sw.mu.Unlock()
		reply(TypeFlowStatsReply, encodeFlowStats(stats))
	default:
		reply(TypeError, encodeError(2, fmt.Sprintf("unsupported type %d", m.Type)))
	}
}

// AddBytes is the data-plane hook: record that the switch forwarded n
// bytes of the given flow out of the given port.
func (sw *Switch) AddBytes(flowID uint64, port uint32, n uint64) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.flowTx[flowID] += n
	sw.portTx[port] += n
}

// HasFlow reports whether a flow entry is installed (for tests and for
// data planes that check admission).
func (sw *Switch) HasFlow(flowID uint64) (outPort uint32, ok bool) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	p, ok := sw.flows[flowID]
	return p, ok
}

// NumFlows returns the number of installed flow entries.
func (sw *Switch) NumFlows() int {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return len(sw.flows)
}

// Close disconnects from the controller.
func (sw *Switch) Close() error {
	sw.mu.Lock()
	if sw.closed {
		sw.mu.Unlock()
		return nil
	}
	sw.closed = true
	conn := sw.conn
	sw.mu.Unlock()
	if conn != nil {
		err := conn.Close()
		<-sw.done
		return err
	}
	return nil
}
