// Package wire is a small request/response RPC framework over TCP, the
// stand-in for the Apache Thrift control-message transport the Mayflower
// prototype used (§5 of the paper).
//
// A server registers named handlers; a client multiplexes concurrent
// calls over one connection and honours context deadlines. Remote handler
// failures surface as *RemoteError so callers can distinguish transport
// problems from application errors.
//
// A frame is a 4-byte big-endian length and that many bytes: a fixed
// binary header like Thrift's message header (see headerLen), then
// the body as JSON, encoded once straight into the frame and decoded from
// it in place. A request may carry one raw attachment (DESIGN.md §12):
// that many bytes follow the frame, so bulk bytes (an append's payload)
// cross as themselves rather than as base64 inside the JSON.
//
// Deadlines and cancellation propagate across the wire (DESIGN.md §13):
// a request frame carries the caller's remaining deadline, which the
// server installs on the handler's context, and a client that abandons a
// call for any other reason sends a cancel frame so the server stops
// doing work whose result nobody will read.
//
// This package is the framing layer only. Control-plane consumers do not
// dial it directly: connection lifecycle (pooling, reconnection, retry,
// metrics) belongs to internal/rpc, which is the sole caller of
// DialContext — a repo test enforces that no other package dials wire.
package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// maxFrame bounds a single message, frame plus attachment; control
// messages are small, so this is purely a defense against corrupt length
// prefixes.
const maxFrame = 16 << 20

// ErrClosed is returned for operations on a closed client or server.
var ErrClosed = errors.New("wire: closed")

// A frame's header, one layout both ways, big-endian: the kind at offset
// 0, the call id at 1, the remaining deadline in nanoseconds at 9 (0 =
// none), the attachment length at 17 (0 = none), and at 25 the length of
// the text behind it, a request's method name or a response's error
// text. The body JSON, params or result, fills the rest of the frame.
const headerLen = 29 // up to the text

// Frame kinds: a request's, then a response's, which is its error code.
// The context sentinels survive the round trip: a handler that saw the
// propagated deadline first and returned it as its own error still
// matches errors.Is(err, context.DeadlineExceeded) at the caller.
const (
	kindCall   byte = iota
	kindCancel      // abandons call id: no response follows
	kindOK
	kindError
	kindDeadline
	kindCanceled
)

// codeNames are the RemoteError.Code of each response kind.
var codeNames = [...]string{kindDeadline: "deadline", kindCanceled: "canceled"}

// RemoteError is an error returned by the remote handler (as opposed to a
// transport failure).
type RemoteError struct {
	Method string
	Msg    string
	// Code classifies context-cancellation errors ("deadline" or
	// "canceled"); empty for ordinary application errors.
	Code string
}

// Error implements the error interface.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("wire: remote %s: %s", e.Method, e.Msg)
}

// Is maps coded remote errors back onto the context sentinels, so a
// handler that surfaced the propagated deadline still matches
// errors.Is(err, context.DeadlineExceeded) at the caller.
func (e *RemoteError) Is(target error) bool {
	switch e.Code {
	case codeNames[kindDeadline]:
		return target == context.DeadlineExceeded
	case codeNames[kindCanceled]:
		return target == context.Canceled
	}
	return false
}

// UnsentError wraps a transport failure that occurred before the request
// reached the wire: the remote handler cannot have run, so a session
// layer may safely retry the call on a fresh connection — even for
// non-idempotent methods. Failures after the frame was fully written are
// never wrapped (the handler may have executed).
type UnsentError struct {
	Err error
}

// Error implements the error interface.
func (e *UnsentError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying transport error to errors.Is/As.
func (e *UnsentError) Unwrap() error { return e.Err }

// message is a decoded frame, Body a sub-slice of it. Timeout is
// relative, so the contract survives clock skew between peers.
type message struct {
	Kind    byte
	ID      uint64
	Timeout time.Duration
	Attach  int64
	Text    string // a request's method name, a response's error text
	Body    json.RawMessage
}

// decode decodes a frame of a kind from first to last. The attachment
// length is bounded with the frame by maxFrame before anything is
// allocated for it.
func decode(body []byte, m *message, first, last byte) error {
	if len(body) < headerLen || body[0] < first || body[0] > last ||
		uint64(len(body)-headerLen) < uint64(binary.BigEndian.Uint32(body[25:])) {
		return errors.New("wire: malformed frame header")
	}
	attach := int64(binary.BigEndian.Uint64(body[17:]))
	if attach < 0 || attach > maxFrame-int64(len(body)) { // no sum: a claim near MaxInt64 would wrap
		return fmt.Errorf("wire: frame too large (%d bytes + %d attached)", len(body), attach)
	}
	end := headerLen + int(binary.BigEndian.Uint32(body[25:]))
	*m = message{
		Kind:    body[0],
		ID:      binary.BigEndian.Uint64(body[1:]),
		Timeout: time.Duration(binary.BigEndian.Uint64(body[9:])),
		Attach:  attach,
		Text:    string(body[headerLen:end]),
		Body:    body[end:],
	}
	return nil
}

// frame is an outgoing frame in a pooled buffer: the length prefix, the
// header, then the JSON body, which a json.Encoder writes straight in.
type frame struct{ b []byte }

var frames = sync.Pool{New: func() any { return new(frame) }}

func (f *frame) Write(p []byte) (int, error) {
	f.b = append(f.b, p...)
	return len(p), nil
}

// free pools f, unless a large body grew it past readBufCap.
func (f *frame) free() {
	if cap(f.b) <= readBufCap {
		frames.Put(f)
	}
}

// encode builds m's frame with v's JSON (nil: none) as its body.
func encode(m *message, v any) (*frame, error) {
	f := frames.Get().(*frame)
	f.b = binary.BigEndian.AppendUint64(append(f.b[:0], 0, 0, 0, 0, m.Kind), m.ID)
	f.b = binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(f.b, uint64(m.Timeout)), uint64(m.Attach))
	f.b = append(binary.BigEndian.AppendUint32(f.b, uint32(len(m.Text))), m.Text...)
	if v != nil {
		if err := json.NewEncoder(f).Encode(v); err != nil {
			f.free()
			return nil, err
		}
		f.b = f.b[:len(f.b)-1] // Encode's newline
	}
	binary.BigEndian.PutUint32(f.b, uint32(len(f.b)-4))
	return f, nil
}

// encodeResponse builds the frame answering call id with a handler's
// result or error.
func encodeResponse(id uint64, result any, err error) *frame {
	m := message{Kind: kindOK, ID: id}
	if err != nil {
		m.Kind, m.Text, result = kindError, err.Error(), nil
		if errors.Is(err, context.DeadlineExceeded) {
			m.Kind = kindDeadline
		} else if errors.Is(err, context.Canceled) {
			m.Kind = kindCanceled
		}
	}
	f, err := encode(&m, result)
	if err != nil {
		return encodeResponse(id, nil, fmt.Errorf("marshal result: %w", err))
	}
	return f
}

// writeFrame sends a built frame, followed by attach. A request (split)
// writes its length prefix, the rest of the frame and the attachment
// separately under one hold of mu, not as one writev: a single write to a
// just-closed peer succeeds whole and the failure surfaces on the read,
// where it is no longer an *UnsentError and the session layer may not
// retry it. A response has no such contract: one write.
func writeFrame(w io.Writer, mu *sync.Mutex, frame, attach []byte, split bool) error {
	if n := len(frame) - 4 + len(attach); n > maxFrame {
		return fmt.Errorf("wire: frame too large (%d bytes)", n)
	}
	mu.Lock()
	defer mu.Unlock()
	if !split {
		_, err := w.Write(frame)
		return err
	}
	if _, err := w.Write(frame[:4]); err != nil {
		return err
	}
	if _, err := w.Write(frame[4:]); err != nil || len(attach) == 0 {
		return err
	}
	_, err := w.Write(attach)
	return err
}

// readBufCap caps the buffer reserved for bytes a peer has announced but
// not yet sent. A length (a frame's prefix, an attachment's header field)
// is untrusted until that many bytes actually show up, so a corrupt one
// must not cost a maxFrame-sized allocation.
const readBufCap = 64 << 10

// attachPools recycles attachment receive buffers (DESIGN.md §13): class
// i holds buffers of at least readBufCap<<i bytes, up to maxFrame at i = 8.
// They hold *[]byte: putting a bare slice would box it, an allocation.
var attachPools [9]sync.Pool

// readN reads exactly n announced bytes into one slice of capacity up to
// limit (>= n): sized up to readBufCap (every control message: one
// allocation), then at most quadrupling as it fills.
func readN(r io.Reader, n, limit int64) ([]byte, error) {
	var buf []byte
	for int64(len(buf)) < n {
		c := min(limit, max(readBufCap, 4*int64(len(buf))))
		grown := make([]byte, min(n, c), c)
		copy(grown, buf)
		if err := readFull(r, grown[len(buf):]); err != nil {
			return nil, err
		}
		buf = grown
	}
	return buf, nil
}

// readFull fills b with announced bytes: a stream that ends first is
// io.ErrUnexpectedEOF, never a clean io.EOF.
func readFull(r io.Reader, b []byte) error {
	_, err := io.ReadFull(r, b)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// putAttachment recycles a buffer readRequest returned (nil: none) into
// the largest class it fills; one smaller than every class is dropped.
func putAttachment(p *[]byte) {
	if p != nil && cap(*p) >= readBufCap {
		attachPools[bits.Len64(uint64(cap(*p))/readBufCap)-1].Put(p)
	}
}

// readFrame reads one frame's body, its length prefix (peeked: the body is
// the one allocation) checked against maxFrame before anything is allocated.
func readFrame(r *bufio.Reader) ([]byte, error) {
	prefix, err := r.Peek(4)
	if err != nil {
		if err == io.EOF && len(prefix) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := int64(binary.BigEndian.Uint32(prefix))
	if n > maxFrame {
		return nil, fmt.Errorf("wire: frame too large (%d bytes)", n)
	}
	r.Discard(4) //nolint:errcheck // peeked
	return readN(r, n, n)
}

// readRequest reads one request frame and the attachment behind it, if
// its header announces one. The announced length is believed only once
// the header has decoded and is bounded with the frame by maxFrame; a
// stream that ends inside the attachment is io.ErrUnexpectedEOF, so a
// request is never seen without all of it. The attachment lands in a free
// buffer of its class, or else in one readN grows to that class's size as
// bytes arrive; the caller hands it back with putAttachment.
func readRequest(r *bufio.Reader, req *message) (*[]byte, error) {
	body, err := readFrame(r)
	if err != nil {
		return nil, err
	}
	if err := decode(body, req, kindCall, kindCancel); err != nil || req.Attach == 0 {
		return nil, err
	}
	class := bits.Len64(uint64(req.Attach-1) / readBufCap)
	p, _ := attachPools[class].Get().(*[]byte)
	if p == nil {
		b, err := readN(r, req.Attach, readBufCap<<class)
		if err != nil {
			return nil, err
		}
		return &b, nil
	}
	*p = (*p)[:req.Attach]
	if err := readFull(r, *p); err != nil {
		putAttachment(p)
		return nil, err
	}
	return p, nil
}

// Handler processes one request's parameters and returns a result to be
// JSON-encoded, or an error that is reported to the caller. The context
// carries the caller's deadline (when the request frame had one) and is
// cancelled when the caller abandons the call or the connection drops.
type Handler func(ctx context.Context, params json.RawMessage) (any, error)

// The attachment context keys, one per direction: a handler that passes
// its own context to an outbound call must not forward what it was served.
type (
	sendKey struct{} // WithAttachment → Client.Call
	recvKey struct{} // serveConn → Attachment
)

// WithAttachment returns a context under which Client.Call sends b raw
// behind the request frame. Call does not copy b: it must not
// change until Call returns.
func WithAttachment(ctx context.Context, b []byte) context.Context {
	return context.WithValue(ctx, sendKey{}, b)
}

// Attachment returns the raw bytes that arrived behind the request a
// handler is serving, nil if there were none. The handler is handed the
// receive buffer itself and must not retain it past its return: the
// buffer then takes a later request's attachment.
func Attachment(ctx context.Context) []byte {
	if p, _ := ctx.Value(recvKey{}).(*[]byte); p != nil {
		return *p
	}
	return nil
}

// maxParked caps the handler goroutines a Server keeps parked (see work):
// the calls one runs at once in steady state, each keeping the tens of KiB
// of stack an fs.Select decode grew, so an idle server holds under a MiB.
const maxParked = 16

// Server dispatches wire requests to registered handlers.
type Server struct {
	mu       sync.Mutex
	handlers map[string]Handler
	ln       net.Listener
	conns    map[net.Conn]struct{}
	serving  bool
	closed   bool
	wg       sync.WaitGroup // connection goroutines
	calls    chan func()    // to a parked handler goroutine
	quit     chan struct{}  // closed by Close: parked goroutines exit
	parked   atomic.Int32
	workers  sync.WaitGroup // handler goroutines
}

// NewServer creates an empty server.
func NewServer() *Server {
	return &Server{
		handlers: make(map[string]Handler),
		conns:    make(map[net.Conn]struct{}),
		calls:    make(chan func()),
		quit:     make(chan struct{}),
	}
}

// Register installs a handler for a method name. Registering a duplicate
// method or registering after Serve has started is an error.
func (s *Server) Register(method string, h Handler) error {
	if method == "" || h == nil {
		return errors.New("wire: empty method or nil handler")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.serving {
		return fmt.Errorf("wire: register %q after Serve started", method)
	}
	if _, dup := s.handlers[method]; dup {
		return fmt.Errorf("wire: duplicate method %q", method)
	}
	s.handlers[method] = h
	return nil
}

// Serve accepts connections on ln until the server is closed. It blocks.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.ln = ln
	s.serving = true
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			stopped := s.closed
			s.mu.Unlock()
			if stopped {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1) // under mu, so a Close that saw the conn waits for it
		s.mu.Unlock()

		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// ListenAndServe listens on addr and serves until closed.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// admit resolves the handler for one request: on a closed server or for
// an unknown method, one that answers with the refusal.
func (s *Server) admit(method string) Handler {
	s.mu.Lock()
	defer s.mu.Unlock()
	if h := s.handlers[method]; h != nil && !s.closed {
		return h
	}
	refusal := fmt.Errorf("unknown method %q", method)
	if s.closed {
		refusal = errors.New("server closed")
	}
	return func(context.Context, json.RawMessage) (any, error) { return nil, refusal }
}

// dispatch runs f on a parked handler goroutine, or starts one if none is
// parked, so a call never waits behind another: a slow handler (an append
// waiting on its relays) holds only its own goroutine.
func (s *Server) dispatch(f func()) {
	select {
	case s.calls <- f:
	default:
		s.workers.Add(1)
		go s.work(f)
	}
}

// work runs f, then parks for the next call of any connection, so that
// call's decode runs on a stack earlier calls already grew instead of
// growing a fresh one (DESIGN.md §13). With maxParked others parked, or
// once Close quits, it exits instead.
func (s *Server) work(f func()) {
	defer s.workers.Done()
	for f != nil {
		f()
		f = nil // hold nothing of a finished call while parked
		if s.parked.Add(1) <= maxParked {
			select {
			case f = <-s.calls:
			case <-s.quit:
			}
		}
		s.parked.Add(-1)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	ctx, cancel := context.WithCancel(context.Background())
	in := bufio.NewReader(conn) // a frame and those queued behind it: one read
	var writeMu sync.Mutex
	var handlerWG sync.WaitGroup
	// Per-call cancel funcs, keyed by request id, so a cancel frame (or a
	// completed handler) can release exactly its own call.
	var liveMu sync.Mutex
	live := make(map[uint64]context.CancelFunc)
	// LIFO: cancel in-flight handlers first, then wait for them to drain.
	defer handlerWG.Wait()
	defer cancel()
	for {
		var req message
		attach, err := readRequest(in, &req)
		if err != nil {
			return
		}
		if req.Kind == kindCancel {
			// The caller abandoned the call: cancel its handler, which
			// still answers (ignored); an id with none live is a no-op.
			putAttachment(attach)
			liveMu.Lock()
			if stop := live[req.ID]; stop != nil {
				stop()
			}
			liveMu.Unlock()
			continue
		}

		// The handler context: bounded by the caller's propagated
		// deadline, cancelled by a cancel frame or connection loss.
		h := s.admit(req.Text)
		var callCtx context.Context
		var stop context.CancelFunc
		if req.Timeout > 0 {
			callCtx, stop = context.WithTimeout(ctx, req.Timeout)
		} else {
			callCtx, stop = context.WithCancel(ctx)
		}
		liveMu.Lock()
		live[req.ID] = stop
		liveMu.Unlock()
		if attach != nil {
			callCtx = context.WithValue(callCtx, recvKey{}, attach)
		}

		handlerWG.Add(1)
		s.dispatch(func() {
			defer handlerWG.Done()
			defer func() {
				liveMu.Lock()
				delete(live, req.ID)
				liveMu.Unlock()
				stop()
			}()
			result, err := h(callCtx, req.Body)
			f := encodeResponse(req.ID, result, err)
			// Free before the reply, so the caller's next piece finds it.
			putAttachment(attach)
			// A write failure means the connection is gone; the read
			// loop will notice and clean up.
			_ = writeFrame(conn, &writeMu, f.b, nil, false)
			f.free()
		})
	}
}

// Addr returns the listener address, if serving.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops the listener, closes every connection, waits for in-flight
// handlers to drain, and then for the parked handler goroutines to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait() // every connection's calls answered: nothing dispatches now
	close(s.quit)
	s.workers.Wait()
	return err
}

// Client is a wire RPC client multiplexing calls over one connection.
type Client struct {
	conn net.Conn

	writeMu sync.Mutex

	nextID atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]chan message
	closed  bool
	readErr error
}

// DialContext connects to a wire server, honouring ctx cancellation and
// deadline during the TCP connect: cancelling the context aborts an
// in-flight dial promptly, with no connection left behind. This is the
// only dial this package offers — internal/rpc owns every control-plane
// connection and is its sole caller outside tests.
func DialContext(ctx context.Context, addr string) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:    conn,
		pending: make(map[uint64]chan message),
	}
	go c.readLoop()
	return c
}

func (c *Client) readLoop() {
	in := bufio.NewReader(c.conn)
	for {
		var resp message
		body, err := readFrame(in)
		if err == nil {
			err = decode(body, &resp, kindOK, kindCanceled)
		}
		if err != nil {
			c.failAll(fmt.Errorf("wire: connection lost: %w", err))
			return
		}
		c.mu.Lock()
		ch := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if ch != nil {
			ch <- resp
		}
	}
}

func (c *Client) failAll(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.readErr == nil {
		c.readErr = err
	}
	for id, ch := range c.pending {
		delete(c.pending, id)
		close(ch)
	}
}

// Err reports the connection's terminal state: nil while the session is
// healthy, ErrClosed after Close, or the transport error that killed the
// read loop. A session layer uses this to discard dead cached
// connections before sending on them.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	return c.readErr
}

// Call invokes method with params (the JSON body, followed raw by ctx's
// WithAttachment bytes if any) and decodes the result into result (unless
// nil). It respects ctx cancellation and deadlines: the remaining
// deadline travels with the request frame (the server bounds the handler
// context with it), and a call abandoned otherwise sends a cancel frame
// so the server stops the handler. Failures from before the request
// reached the wire are wrapped in *UnsentError (safe to retry on a fresh
// connection).
func (c *Client) Call(ctx context.Context, method string, params, result any) error {
	attach, _ := ctx.Value(sendKey{}).([]byte)
	req := message{Kind: kindCall, ID: c.nextID.Add(1), Text: method, Attach: int64(len(attach))}
	if deadline, ok := ctx.Deadline(); ok {
		// Already (nearly) expired: still send a positive bound so the
		// server-side contract "frame deadline ⇒ handler deadline" holds;
		// the caller's own select fires immediately anyway.
		req.Timeout = max(time.Until(deadline), 1)
	}
	f, err := encode(&req, params)
	if err != nil {
		return fmt.Errorf("wire: marshal params: %w", err)
	}

	ch := make(chan message, 1)
	c.mu.Lock()
	err = c.readErr
	if c.closed {
		err = ErrClosed
	}
	if err != nil {
		c.mu.Unlock()
		f.free()
		return &UnsentError{Err: err}
	}
	c.pending[req.ID] = ch
	c.mu.Unlock()

	err = writeFrame(c.conn, &c.writeMu, f.b, attach, true)
	f.free()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, req.ID)
		c.mu.Unlock()
		// A partial frame is unparseable and a request is dispatched only
		// with its whole attachment, so the handler cannot have run.
		return &UnsentError{Err: err}
	}

	select {
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, req.ID)
		c.mu.Unlock()
		// Stop the server's work on the call, best-effort, unless the
		// request's own deadline fired: the server's copy ends the handler
		// with DeadlineExceeded, which a racing cancel would make Canceled.
		if req.Timeout == 0 || ctx.Err() != context.DeadlineExceeded {
			f, _ := encode(&message{Kind: kindCancel, ID: req.ID}, nil) // no body: cannot fail
			_ = writeFrame(c.conn, &c.writeMu, f.b, nil, true)
			f.free()
		}
		return ctx.Err()
	case resp, ok := <-ch:
		if !ok {
			c.mu.Lock()
			err := c.readErr
			c.mu.Unlock()
			if err == nil {
				err = ErrClosed
			}
			return err
		}
		if resp.Kind != kindOK {
			return &RemoteError{Method: method, Msg: resp.Text, Code: codeNames[resp.Kind]}
		}
		if result != nil {
			if len(resp.Body) == 0 {
				return fmt.Errorf("wire: %s returned no result", method)
			}
			if err := json.Unmarshal(resp.Body, result); err != nil {
				return fmt.Errorf("wire: decode result: %w", err)
			}
		}
		return nil
	}
}

// Close tears down the connection; pending calls fail.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	return c.conn.Close()
}
