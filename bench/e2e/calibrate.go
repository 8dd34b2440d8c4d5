package e2e

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// The sandbox this benchmark runs in does not hold its speed. For
// minutes at a time everything that makes system calls or moves memory
// takes 1.3-2x as long as it did before, while a register-only loop
// hardly notices (bench/README.md has the traces); and in steps lasting
// seconds the clock itself moves by a fifth. Raw times of the same code,
// same seed, spread 25-35% between runs on a bad day.
//
// What does track the machine is work of the same kind. So beside the
// workload the harness times a fixed reference operation made of what
// these workloads are made of — small round trips, a connection set-up
// and a bulk stream over loopback TCP between two goroutines — and
// reports each operation's time as what it would have been had the
// reference taken calRef. The reference touches nothing of the system
// under test (standard library only), so a change to the system moves
// the operation and not the yardstick; a change to the machine moves
// both and cancels. On the same bad day the calibrated p50s spread 6-9%.
//
// Only the single closed-loop workloads are calibrated: their time is
// CPU, kernel and memory work. fabric_contended's time is pacing sleep,
// which does not scale with the machine, and is reported as measured.

const (
	// calEvery is how often a calibrated driver re-times the reference
	// (about 1.5 ms each time: 2% of the window).
	calEvery = 100 * time.Millisecond
	// calRef defines the reference machine: one on which the reference
	// operation takes this long, about what this sandbox does when quiet,
	// so calibrated numbers read like quiet wall-clock ones.
	calRef = 285 * time.Microsecond

	calMsgBytes    = 256
	calStreamBytes = 1 << 20
	calChunkBytes  = 32 << 10 // io.Copy's buffer, which is how the dataserver streams
	calRoundTrips  = 4
)

// calibrator owns the loopback endpoints of the reference operation.
type calibrator struct {
	ln   net.Listener
	conn net.Conn
	msg  []byte
	bulk []byte
	wg   sync.WaitGroup
}

func newCalibrator() (*calibrator, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("calibrator: %w", err)
	}
	c := &calibrator{ln: ln, msg: make([]byte, calMsgBytes), bulk: make([]byte, calStreamBytes)}
	c.wg.Add(1)
	go c.accept()
	c.conn, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("calibrator: %w", err)
	}
	return c, nil
}

func (c *calibrator) accept() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		c.wg.Add(1)
		go c.serve(conn)
	}
}

// serve answers a message whose first byte is 0 with the message, and one
// whose first byte is 1 with calStreamBytes in calChunkBytes writes.
func (c *calibrator) serve(conn net.Conn) {
	defer c.wg.Done()
	defer conn.Close()
	msg := make([]byte, calMsgBytes)
	chunk := make([]byte, calChunkBytes)
	for {
		if _, err := io.ReadFull(conn, msg); err != nil {
			return
		}
		if msg[0] == 0 {
			if _, err := conn.Write(msg); err != nil {
				return
			}
			continue
		}
		for sent := 0; sent < calStreamBytes; sent += calChunkBytes {
			if _, err := conn.Write(chunk); err != nil {
				return
			}
		}
	}
}

// reference runs the reference operation once.
func (c *calibrator) reference() error {
	c.msg[0] = 0
	for i := 0; i < calRoundTrips; i++ {
		if _, err := c.conn.Write(c.msg); err != nil {
			return err
		}
		if _, err := io.ReadFull(c.conn, c.msg); err != nil {
			return err
		}
	}
	dial, err := net.Dial("tcp", c.ln.Addr().String())
	if err != nil {
		return err
	}
	dial.Close()
	c.msg[0] = 1
	if _, err := c.conn.Write(c.msg); err != nil {
		return err
	}
	_, err = io.ReadFull(c.conn, c.bulk)
	return err
}

// measure times the reference operation, best of three: interference only
// ever adds time.
func (c *calibrator) measure() (time.Duration, error) {
	best := time.Duration(1 << 62)
	for k := 0; k < 3; k++ {
		t0 := time.Now()
		if err := c.reference(); err != nil {
			return 0, fmt.Errorf("calibrator: %w", err)
		}
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best, nil
}

// Close stops the calibrator's goroutines and waits for them.
func (c *calibrator) Close() {
	c.ln.Close()
	if c.conn != nil {
		c.conn.Close()
	}
	c.wg.Wait()
}

// calClock is a stopwatch that reads in reference-machine time: while it
// runs, lap re-times the reference operation every calEvery and credits
// the stretch since the previous timing at the mean of the two. The
// timings themselves are not counted.
type calClock struct {
	cal   *calibrator
	at    time.Time
	speed time.Duration
	total time.Duration
}

func (c *calClock) start() (err error) {
	c.speed, err = c.cal.measure()
	c.at = time.Now()
	return err
}

// lap credits the time since the last timing if calEvery has passed, or
// whatever has passed when final.
func (c *calClock) lap(final bool) error {
	d := time.Since(c.at)
	if d < calEvery && !final {
		return nil
	}
	speed, err := c.cal.measure()
	if err != nil {
		return err
	}
	c.total += norm(d, (c.speed+speed)/2)
	c.speed, c.at = speed, time.Now()
	return nil
}

// norm scales a duration measured while the reference took speed to the
// reference machine; speed 0 means "not calibrated".
func norm(d, speed time.Duration) time.Duration {
	if speed <= 0 {
		return d
	}
	return time.Duration(float64(d) * float64(calRef) / float64(speed))
}
