package sdn

import (
	"bufio"
	"cmp"
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
)

// ErrUnknownSwitch is returned when addressing a datapath id that has not
// said HELLO.
var ErrUnknownSwitch = errors.New("sdn: unknown switch")

// Controller accepts switch connections and exposes the control-plane
// operations the Flowserver needs: flow installation/removal and counter
// collection. All methods are safe for concurrent use.
type Controller struct {
	mu       sync.Mutex
	ln       net.Listener
	switches map[uint64]*switchConn
	closed   bool
	wg       sync.WaitGroup
}

type switchConn struct {
	dpid uint64
	conn net.Conn

	writeMu sync.Mutex
	frames  []byte // FlowMods are built here, under writeMu

	mu      sync.Mutex
	nextXid uint32
	pending map[uint32]chan message
}

// NewController creates an idle controller.
func NewController() *Controller {
	return &Controller{switches: make(map[uint64]*switchConn)}
}

// Listen starts accepting switch connections on addr and returns the
// bound address.
func (c *Controller) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return ln.Addr(), c.Serve(ln)
}

// Serve accepts switch connections on ln in the background until Close.
func (c *Controller) Serve(ln net.Listener) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		ln.Close()
		return errors.New("sdn: controller closed")
	}
	c.ln = ln
	c.mu.Unlock()

	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				c.serveSwitch(conn)
			}()
		}
	}()
	return nil
}

func (c *Controller) serveSwitch(conn net.Conn) {
	defer conn.Close()

	// Replies cross a channel to their caller, so only headers reuse buf.
	buf := make([]byte, hdrLen)
	in := bufio.NewReader(conn)
	hello, err := readMessage(in, buf)
	if err != nil || hello.Type != TypeHello {
		return
	}
	dpid, err := decodeHello(hello.Payload)
	if err != nil {
		return
	}
	sc := &switchConn{dpid: dpid, conn: conn, pending: make(map[uint32]chan message)}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.switches[dpid] = sc
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		if c.switches[dpid] == sc {
			delete(c.switches, dpid)
		}
		c.mu.Unlock()
		sc.failAll()
	}()

	for {
		m, err := readMessage(in, buf)
		if err != nil {
			return
		}
		sc.mu.Lock()
		ch := sc.pending[m.Xid]
		delete(sc.pending, m.Xid)
		sc.mu.Unlock()
		if ch != nil {
			ch <- m
		}
	}
}

func (sc *switchConn) failAll() {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for xid, ch := range sc.pending {
		delete(sc.pending, xid)
		close(ch)
	}
}

func (c *Controller) lookup(dpid uint64) (*switchConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sc, ok := c.switches[dpid]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownSwitch, dpid)
	}
	return sc, nil
}

// Switches lists the datapath ids of connected switches.
func (c *Controller) Switches() []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]uint64, 0, len(c.switches))
	for id := range c.switches {
		out = append(out, id)
	}
	return out
}

// Send sorts mods by switch, keeping each switch's in order, and writes
// each switch its mods in one write, built in its connection's scratch
// (a batch allocates nothing). It joins every switch's failure.
func (c *Controller) Send(mods []FlowMod) error {
	slices.SortStableFunc(mods, func(a, b FlowMod) int { return cmp.Compare(a.Switch, b.Switch) })
	var errs []error
	for i, j := 0, 0; i < len(mods); i = j {
		for j = i + 1; j < len(mods) && mods[j].Switch == mods[i].Switch; j++ {
		}
		if err := c.send(mods[i:j]); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

func (c *Controller) send(mods []FlowMod) error {
	sc, err := c.lookup(mods[0].Switch)
	if err != nil {
		return err
	}
	sc.writeMu.Lock()
	defer sc.writeMu.Unlock()
	sc.frames = sc.frames[:0]
	for _, m := range mods {
		sc.frames = appendFlowMod(sc.frames, m)
	}
	_, err = sc.conn.Write(sc.frames)
	return err
}

// PortStats fetches the transmit byte counters of every port on a switch.
func (c *Controller) PortStats(ctx context.Context, dpid uint64) ([]PortStat, error) {
	m, err := c.roundTrip(ctx, dpid, TypePortStatsRequest, TypePortStatsReply)
	if err != nil {
		return nil, err
	}
	return decodePortStats(m.Payload)
}

// FlowStats fetches the byte counters of every flow entry on a switch.
func (c *Controller) FlowStats(ctx context.Context, dpid uint64) ([]FlowStat, error) {
	m, err := c.roundTrip(ctx, dpid, TypeFlowStatsRequest, TypeFlowStatsReply)
	if err != nil {
		return nil, err
	}
	return decodeFlowStats(m.Payload)
}

func (c *Controller) roundTrip(ctx context.Context, dpid uint64, reqType, wantType MsgType) (message, error) {
	sc, err := c.lookup(dpid)
	if err != nil {
		return message{}, err
	}
	ch := make(chan message, 1)
	sc.mu.Lock()
	sc.nextXid++
	xid := sc.nextXid
	sc.pending[xid] = ch
	sc.mu.Unlock()
	sc.writeMu.Lock()
	err = writeMessage(sc.conn, message{Type: reqType, Xid: xid})
	sc.writeMu.Unlock()
	if err != nil {
		sc.mu.Lock()
		delete(sc.pending, xid)
		sc.mu.Unlock()
		return message{}, err
	}
	select {
	case <-ctx.Done():
		return message{}, ctx.Err()
	case m, ok := <-ch:
		if !ok {
			return message{}, fmt.Errorf("sdn: switch %d disconnected", dpid)
		}
		if m.Type == TypeError {
			code, msg, derr := decodeError(m.Payload)
			if derr != nil {
				return message{}, derr
			}
			return message{}, fmt.Errorf("sdn: switch %d error %d: %s", dpid, code, msg)
		}
		if m.Type != wantType {
			return message{}, fmt.Errorf("sdn: switch %d replied type %d, want %d", dpid, m.Type, wantType)
		}
		return m, nil
	}
}

// Close stops the controller and disconnects every switch.
func (c *Controller) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	ln := c.ln
	conns := make([]*switchConn, 0, len(c.switches))
	for _, sc := range c.switches {
		conns = append(conns, sc)
	}
	c.mu.Unlock()

	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, sc := range conns {
		sc.conn.Close()
	}
	c.wg.Wait()
	return err
}
