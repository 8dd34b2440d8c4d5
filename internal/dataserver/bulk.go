package dataserver

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/obs"
	"github.com/mayflower-dfs/mayflower/internal/uuid"
)

// The pool's rules are constants: nothing constrains them but each other.
const (
	// bulkIdlePerAddr caps the idle connections kept per address: a split
	// read's two segments and a neighbour; each pins a goroutine there.
	bulkIdlePerAddr = 4
	// bulkIdleLimit is how long an idle connection stays reusable: half
	// the server's dataIdleLimit, so the client drops it first.
	bulkIdleLimit = 30 * time.Second
)

// BulkMetrics counts connections opened (pool misses and redials), reused
// from the pool, and redialed because the server had closed a reused one.
type BulkMetrics struct {
	Dials, Reuses, Redials obs.Counter
}

// Bulk is the one client of the bulk read protocol (see server.go). It
// pools connections per data address so a read does not start with a dial.
// One goes back only after a success header and every promised byte were
// consumed, deadline cleared; any error, an error reply included, closes
// it. Safe for concurrent use.
type Bulk struct {
	dial      func(ctx context.Context, addr string) (net.Conn, error)
	timeout   time.Duration // bounds each Read beside ctx's deadline; <= 0: none
	met       *BulkMetrics
	idleLimit time.Duration // bulkIdleLimit; tests shorten it

	mu    sync.Mutex
	idle  map[string][]*bulkConn // per address, oldest first; nil once closed
	swept time.Time              // when checkout last swept every address
}

// bulkConn carries the scratch its headers are built in: one allocation
// per connection, none per read.
type bulkConn struct {
	net.Conn
	hdr       [40]byte
	idleSince time.Time
}

// NewBulk returns a bulk reader that opens connections with dial (plain
// TCP if nil), gives each Read at most timeout (none if <= 0) and counts
// into met.
func NewBulk(dial func(ctx context.Context, addr string) (net.Conn, error), timeout time.Duration, met *BulkMetrics) *Bulk {
	if dial == nil {
		dial = func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	return &Bulk{dial: dial, timeout: timeout, met: met, idleLimit: bulkIdleLimit, idle: make(map[string][]*bulkConn)}
}

// Read fills buf from the file at offset on the dataserver at addr, as
// flow flowID, and returns the file size reported. ctx's deadline and the
// timeout become the connection's, so a read derives no context.
//
// A reused connection that fails before any reply byte, and not by
// deadline, was closed by the server while idle: no verdict on the
// replica, so the request is re-sent once on a fresh connection under the
// same flow id. Every other failure is the caller's — a stalled replica
// must cost it one timeout, not two. A ctx cancelled mid-read ends it at
// once with ctx.Err(), and its connection is closed, not pooled.
func (b *Bulk) Read(ctx context.Context, addr string, flowID uint64, fileID uuid.UUID, offset int64, buf []byte) (int64, error) {
	deadline, _ := ctx.Deadline() // zero: none
	if d := time.Now().Add(b.timeout); b.timeout > 0 && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	c := b.checkout(addr)
	for {
		reused := c != nil
		if !reused {
			dctx, cancel := ctx, context.CancelFunc(func() {})
			if !deadline.IsZero() {
				dctx, cancel = context.WithDeadline(ctx, deadline)
			}
			conn, err := b.dial(dctx, addr)
			cancel()
			if err != nil {
				return 0, err
			}
			b.met.Dials.Inc()
			c = &bulkConn{Conn: conn}
		}
		stop := func() bool { return true }
		if ctx.Done() != nil {
			conn := c.Conn
			stop = context.AfterFunc(ctx, func() { _ = conn.SetDeadline(time.Unix(1, 0)) })
		}
		size, replied, err := c.roundTrip(deadline, flowID, fileID, offset, buf)
		if !stop() && (err == nil || ctx.Err() == context.Canceled) {
			err = ctx.Err() // ctx ended mid-read and expired the connection; an expiry reports the read's own deadline
		}
		if err == nil {
			b.checkin(addr, c)
			return size, nil
		}
		c.Close()
		if !reused || replied || errors.Is(err, os.ErrDeadlineExceeded) || ctx.Err() != nil {
			return 0, err
		}
		b.met.Redials.Inc()
		c = nil
	}
}

// Close closes the idle connections; reads in flight close their own.
func (b *Bulk) Close() {
	b.mu.Lock()
	idle := b.idle
	b.idle = nil
	b.mu.Unlock()
	for _, conns := range idle {
		for _, c := range conns {
			c.Close()
		}
	}
}

// checkout takes the newest idle connection to addr (warmest TCP state)
// after closing those idled past the limit: addr's always, and at most
// once per limit every address's, so a dataserver the pool stopped using
// is not left holding them half-closed.
func (b *Bulk) checkout(addr string) (c *bulkConn) {
	now := time.Now()
	b.mu.Lock()
	expired := b.expire(addr, now, nil)
	if now.Sub(b.swept) > b.idleLimit {
		b.swept = now
		for a := range b.idle {
			expired = b.expire(a, now, expired)
		}
	}
	if idle := b.idle[addr]; len(idle) > 0 {
		c, b.idle[addr] = idle[len(idle)-1], idle[:len(idle)-1]
		b.met.Reuses.Inc()
	}
	b.mu.Unlock()
	for _, old := range expired {
		old.Close()
	}
	return c
}

// expire moves addr's connections idled past the limit (the oldest ones)
// onto expired. The caller holds b.mu.
func (b *Bulk) expire(addr string, now time.Time, expired []*bulkConn) []*bulkConn {
	idle := b.idle[addr]
	stale := 0
	for stale < len(idle) && now.Sub(idle[stale].idleSince) > b.idleLimit {
		stale++
	}
	if stale == len(idle) {
		delete(b.idle, addr)
	} else {
		b.idle[addr] = idle[stale:]
	}
	return append(expired, idle[:stale]...)
}

// checkin pools a connection whose reply was consumed to the last byte.
func (b *Bulk) checkin(addr string, c *bulkConn) {
	c.idleSince = time.Now()
	b.mu.Lock()
	pooled := b.idle != nil && len(b.idle[addr]) < bulkIdlePerAddr
	if pooled {
		b.idle[addr] = append(b.idle[addr], c)
	}
	b.mu.Unlock()
	if !pooled {
		c.Close()
	}
}

// roundTrip sends one request and fills buf from the reply; replied says
// whether any of one arrived.
func (c *bulkConn) roundTrip(deadline time.Time, flowID uint64, fileID uuid.UUID, offset int64, buf []byte) (size int64, replied bool, err error) {
	if err := c.SetDeadline(deadline); err != nil {
		return 0, false, err
	}
	binary.BigEndian.PutUint64(c.hdr[0:8], flowID)
	copy(c.hdr[8:24], fileID[:])
	binary.BigEndian.PutUint64(c.hdr[24:32], uint64(offset))
	binary.BigEndian.PutUint64(c.hdr[32:40], uint64(len(buf)))
	if _, err := c.Write(c.hdr[:]); err != nil {
		return 0, false, err
	}
	// status(1) fileSize(8), or status(1) msgLen(2) msg: three bytes say
	// which, and one read usually brings all nine.
	n, err := io.ReadAtLeast(c, c.hdr[:9], 3)
	if err != nil {
		return 0, n > 0, err
	}
	switch c.hdr[0] {
	case dataStatusOK:
		_, err = io.ReadFull(c, c.hdr[n:9])
	case dataStatusErr:
		msg := make([]byte, binary.BigEndian.Uint16(c.hdr[1:3]))
		if _, err = io.ReadFull(c, msg[copy(msg, c.hdr[3:n]):]); err == nil {
			err = fmt.Errorf("dataserver: remote read: %s", msg)
			for _, sentinel := range []error{ErrUnknownFile, ErrOutOfRange} { // map back where possible
				if strings.Contains(string(msg), sentinel.Error()) {
					err = fmt.Errorf("%w (remote: %s)", sentinel, msg)
				}
			}
		}
	default:
		err = fmt.Errorf("dataserver: bad read status %d", c.hdr[0])
	}
	if err == nil {
		_, err = io.ReadFull(c, buf)
	}
	if err == nil {
		err = c.SetDeadline(time.Time{})
	}
	return int64(binary.BigEndian.Uint64(c.hdr[1:9])), true, err
}
