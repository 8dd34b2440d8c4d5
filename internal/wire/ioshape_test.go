package wire

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"slices"
	"sync"
	"testing"
)

// countingConn records the size of every Write and counts the Reads that
// returned bytes: the syscalls a frame costs on a real socket.
type countingConn struct {
	net.Conn
	mu     sync.Mutex
	writes []int
	reads  int
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, len(p))
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.mu.Lock()
		c.reads++
		c.mu.Unlock()
	}
	return n, err
}

func (c *countingConn) counts() (writes []int, reads int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.writes), c.reads
}

// countingListener hands out its connections as countingConns.
type countingListener struct {
	net.Listener
	conns chan *countingConn
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: conn}
	l.conns <- cc
	return cc, nil
}

// serveCounting runs startServer's methods on a listener whose accepted
// connections count their I/O.
func serveCounting(t *testing.T) (addr string, conns <-chan *countingConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln, conns: make(chan *countingConn, 1)}
	return serve(t, newServer(t), cl), cl.conns
}

// TestResponseIsOneWrite: a response, result or error, leaves the server
// in one write, its length prefix and body together.
func TestResponseIsOneWrite(t *testing.T) {
	addr, conns := serveCounting(t)
	c := dial(t, addr)
	var r echoReply
	if err := c.Call(context.Background(), "echo", echoArgs{Msg: "hi"}, &r); err != nil {
		t.Fatal(err)
	}
	if err := c.Call(context.Background(), "fail", nil, nil); err == nil {
		t.Fatal("fail succeeded")
	}
	if writes, _ := (<-conns).counts(); len(writes) != 2 {
		t.Errorf("two responses took writes of %v bytes, want one write each", writes)
	}
}

// TestRequestWritesHeaderFirst pins the request side's split, which is
// what turns a send to a just-closed peer into an *UnsentError: the
// length prefix, then the body, then the attachment, each its own write.
func TestRequestWritesHeaderFirst(t *testing.T) {
	_, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: conn}
	c := NewClient(cc)
	defer c.Close()
	ctx := WithAttachment(context.Background(), []byte("payload"))
	if err := c.Call(ctx, "echo", echoArgs{Msg: "hi"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Call(context.Background(), "echo", echoArgs{Msg: "hi"}, nil); err != nil {
		t.Fatal(err)
	}
	writes, _ := cc.counts()
	if len(writes) != 5 || writes[0] != 4 || writes[2] != len("payload") || writes[3] != 4 {
		t.Errorf("request writes = %v bytes, want [4 body 7] then [4 body]", writes)
	}
}

// TestQueuedFramesTakeOneRead: two whole request frames waiting on the
// socket reach the server in one read, not one per prefix and body.
func TestQueuedFramesTakeOneRead(t *testing.T) {
	addr, conns := serveCounting(t)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var queued []byte
	for id := uint64(1); id <= 2; id++ {
		queued = append(queued, attachFrame(message{Kind: kindCall, ID: id, Text: "echo", Body: json.RawMessage(`{"msg":"x"}`)}, 0, nil)...)
	}
	if _, err := raw.Write(queued); err != nil {
		t.Fatal(err)
	}
	in := bufio.NewReader(raw)
	for range 2 {
		var resp message
		body, err := readFrame(in)
		if err == nil {
			err = decode(body, &resp, kindOK, kindCanceled)
		}
		if err != nil || resp.Kind != kindOK {
			t.Fatalf("response %+v, %v", resp, err)
		}
	}
	if _, reads := (<-conns).counts(); reads != 1 {
		t.Errorf("two queued frames took %d reads, want 1", reads)
	}
}
