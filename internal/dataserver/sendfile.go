package dataserver

import (
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"syscall"

	"github.com/mayflower-dfs/mayflower/internal/fabric"
)

// maxSendfileCount clamps one sendfile(2) call's count below 2³¹, which
// the kernel caps a single call at anyway.
const maxSendfileCount = 1 << 30

// sender is a data connection's one send loop: it moves chunk bytes from
// the page cache to the socket with sendfile(2), one RawConn.Write per
// quantum its gate grants (the whole range when the gate is nil), through
// a callback bound once, so a quantum allocates nothing. A small range
// goes by reply instead: pread behind its header, one write for both.
type sender struct {
	raw   syscall.RawConn
	write func(fd uintptr) bool // s.sendfile, bound once
	gate  fabric.Gate           // the current request's; nil: unpaced
	stop  <-chan struct{}       // the server's: once closed, a starved send gives up
	buf   []byte                // a small reply: header and bytes; allocated on first use

	// The callback's arguments and results for the quantum in flight.
	src  int   // chunk file descriptor
	off  int64 // explicit offset: the file position is never used
	left int64 // bytes of the quantum still to send
	err  error
}

// newSender binds the send loop to conn, which must expose its file
// descriptor: every listener in the repo yields *net.TCPConn.
func newSender(conn net.Conn, stop <-chan struct{}) (*sender, error) {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return nil, fmt.Errorf("data connection %T is not a syscall.Conn", conn)
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return nil, err
	}
	s := &sender{raw: raw, stop: stop}
	s.write = s.sendfile
	return s, nil
}

// send streams [off, off+n) of the open chunk f to the connection, asking
// the gate for each quantum and crediting it what went out.
func (s *sender) send(f *os.File, off, n int64) error {
	s.src, s.off = int(f.Fd()), off
	defer runtime.KeepAlive(f) // f must stay open while the kernel reads s.src
	for n > 0 {
		q, err := s.next(n)
		if err != nil {
			return err
		}
		s.left, s.err = q, nil
		err = s.raw.Write(s.write) // a closed connection wakes and fails it
		if s.gate != nil && q > s.left {
			s.gate.Sent(q - s.left)
		}
		if err == nil {
			err = s.err
		}
		if err != nil {
			return err
		}
		n -= q
	}
	return nil
}

// next returns the next quantum of at most n bytes: n unpaced, else the
// gate's grant, asked again while starved until the server closes.
func (s *sender) next(n int64) (int64, error) {
	for s.gate != nil {
		if q := s.gate.Next(n); q > 0 {
			return q, nil
		}
		select {
		case <-s.stop: // closing: do not wait for a dead link to heal
			return 0, net.ErrClosed
		default: // starved: ask again
		}
	}
	return n, nil
}

// fill is the readAt callback of a small reply: it preads [off, off+n) of
// the chunk f into the scratch, behind what is there.
func (s *sender) fill(f *os.File, off, n int64) error {
	_, err := f.ReadAt(s.buf[len(s.buf):len(s.buf)+int(n)], off) // io.EOF: shorter than its recorded size
	s.buf = s.buf[:len(s.buf)+int(n)]
	return err
}

// reply sends the scratch, a success header and the n bytes behind it, in
// one write once the gate granted all n, and credits the gate with them.
func (s *sender) reply(conn net.Conn, n int64) error {
	for left := n; left > 0; {
		q, err := s.next(left)
		if err != nil {
			return err
		}
		left -= q
	}
	_, err := conn.Write(s.buf)
	if s.gate != nil && err == nil {
		s.gate.Sent(n)
	}
	return err
}

// sendfile is the RawConn.Write callback: it sends what is left of the
// quantum and reports done, or false on EAGAIN so RawConn.Write waits for
// the socket to drain and calls it again.
func (s *sender) sendfile(fd uintptr) bool {
	for s.left > 0 {
		n, err := syscall.Sendfile(int(fd), s.src, &s.off, int(min(s.left, maxSendfileCount)))
		if n > 0 {
			s.left -= int64(n)
		}
		switch {
		case err == syscall.EINTR: // retry
		case err == syscall.EAGAIN:
			return false
		case err != nil:
			s.err = err
			return true
		case n == 0:
			// The file is shorter than its recorded size: never spin on it.
			s.err = io.ErrUnexpectedEOF
			return true
		}
	}
	return true
}
