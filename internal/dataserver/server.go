package dataserver

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/fabric"
	"github.com/mayflower-dfs/mayflower/internal/flowctl"
	"github.com/mayflower-dfs/mayflower/internal/flowserver"
	"github.com/mayflower-dfs/mayflower/internal/nameserver"
	"github.com/mayflower-dfs/mayflower/internal/obs"
	"github.com/mayflower-dfs/mayflower/internal/rpc"
	"github.com/mayflower-dfs/mayflower/internal/uuid"
	"github.com/mayflower-dfs/mayflower/internal/wire"
)

// The control RPC methods served by a dataserver (the re-replication
// pair is declared in replicate.go).
const (
	MethodPrepare   rpc.Method[PrepareArgs, struct{}]             = "ds.Prepare"
	MethodAppend    rpc.Method[AppendArgs, AppendReply]           = "ds.Append"
	MethodAppendAt  rpc.Method[AppendAtArgs, AppendReply]         = "ds.AppendAt"
	MethodDelete    rpc.Method[FileIDArgs, struct{}]              = "ds.Delete"
	MethodStat      rpc.Method[FileIDArgs, StatReply]             = "ds.Stat"
	MethodListFiles rpc.Method[struct{}, []nameserver.FileRecord] = "ds.ListFiles"
	MethodScrub     rpc.Method[struct{}, []ChunkFault]            = "ds.Scrub"
)

// MaxAppend bounds a single append RPC; the client library splits larger
// writes.
const MaxAppend = 8 << 20

// Pacer shapes the dataserver's bulk read streams. The emulated
// datacenter network implements it to enforce link sharing; NopPacer runs
// at full speed.
type Pacer interface {
	// Pace returns the gate a read for the given flow sends its quanta
	// through, or nil to send the whole range at once.
	Pace(flowID uint64) fabric.Gate
}

// NopPacer performs no pacing.
type NopPacer struct{}

// Pace returns no gate.
func (NopPacer) Pace(uint64) fabric.Gate { return nil }

var _ Pacer = NopPacer{}

// Config describes a dataserver instance.
type Config struct {
	// ID is the server's stable identity.
	ID string
	// Root is the chunk store directory.
	Root string
	// Host is the topology host name this server runs on.
	Host string
	// Pod and Rack are the server's fault-domain coordinates.
	Pod, Rack int
	// Pacer shapes bulk reads; nil means NopPacer.
	Pacer Pacer
	// HeartbeatInterval is how often the server reports liveness to the
	// nameserver (1 s if zero; 0 heartbeats are never sent when no
	// nameserver is configured).
	HeartbeatInterval time.Duration
	// FlowserverAddr, when set, makes this server (as a file's primary)
	// ask the flow control plane to order its replication fan-out and
	// register each relay hop as a scheduled flow. It is the shard
	// directory's address (see client.Options.FlowserverAddr): the server
	// resolves the shard owning its own Pod and re-resolves when the
	// directory epoch bumps (shard failover) or a call fails. Empty keeps
	// the static replica order with no flow registration.
	FlowserverAddr string
	// Clock is the time base of the shard route's reuse window; the wall
	// clock if nil. The testbed injects its fabric clock, as it does for
	// the client's leases.
	Clock fabric.Clock
	// Metrics optionally publishes the server's write-path counters under
	// "dataserver.<ID>." names. Instrumentation is always on.
	Metrics *obs.Registry
	// Logger receives non-fatal warnings; nil discards them.
	Logger *log.Logger
}

// dsMetrics counts the write path: appends ordered as primary, re-sent
// pieces absorbed by the sequence dedupe, and how the relay order was
// chosen (Flowserver-scheduled vs static fallback).
type dsMetrics struct {
	appends        obs.Counter
	appendDedups   obs.Counter
	relayScheduled obs.Counter
	relayStatic    obs.Counter
	readsServed    obs.Counter // bulk reads streamed to their last byte
	dataConns      obs.Gauge   // data connections open, idle pooled ones included
}

func (m *dsMetrics) register(r *obs.Registry, id string) {
	prefix := "dataserver." + id + "."
	r.RegisterCounter(prefix+"appends", &m.appends)
	r.RegisterCounter(prefix+"append_dedups", &m.appendDedups)
	r.RegisterCounter(prefix+"relays_scheduled", &m.relayScheduled)
	r.RegisterCounter(prefix+"relays_static", &m.relayStatic)
	r.RegisterCounter(prefix+"reads_served", &m.readsServed)
	r.RegisterGauge(prefix+"data_conns", &m.dataConns)
}

// WriteStats is a snapshot of the server's write-path counters.
type WriteStats struct {
	Appends         int64
	AppendDedups    int64
	RelaysScheduled int64
	RelaysStatic    int64
}

// WriteStats returns the server's cumulative write-path counters.
func (s *Server) WriteStats() WriteStats {
	return WriteStats{
		Appends:         s.met.appends.Value(),
		AppendDedups:    s.met.appendDedups.Value(),
		RelaysScheduled: s.met.relayScheduled.Value(),
		RelaysStatic:    s.met.relayStatic.Value(),
	}
}

// Server is a running dataserver: a control RPC endpoint, a bulk data
// endpoint, and the chunk store.
type Server struct {
	cfg      Config
	store    *storage
	ctl      *wire.Server
	pool     *rpc.Pool       // all outbound control sessions (ns, fs, peers)
	bulk     *Bulk           // bulk reads from peers (re-replication)
	fr       *flowctl.Router // nil: static relay order, no flow registration
	dataIdle time.Duration   // dataIdleLimit; tests shorten it

	mu        sync.Mutex
	dataLn    net.Listener
	ctlAddr   string
	dataAddr  string
	ns        *nameserver.Client
	nsPeer    *rpc.Peer
	dataConns map[net.Conn]struct{}
	closed    bool
	wg        sync.WaitGroup
	stop      chan struct{} // closed by Close: ends the heartbeats and any send loop starved on a dead link

	met dsMetrics
}

// New creates a dataserver over the given storage root.
func New(cfg Config) (*Server, error) {
	if cfg.ID == "" {
		return nil, errors.New("dataserver: config needs an ID")
	}
	if cfg.Pacer == nil {
		cfg.Pacer = NopPacer{}
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = time.Second
	}
	st, err := openStorage(cfg.Root)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		store: st,
		ctl:   wire.NewServer(),
		pool: rpc.NewPool(rpc.Options{
			Metrics:       cfg.Metrics,
			MetricsPrefix: "dataserver." + cfg.ID + ".rpc",
		}),
		bulk:      NewBulk(nil, 0, new(BulkMetrics)),
		dataIdle:  dataIdleLimit,
		dataConns: make(map[net.Conn]struct{}),
		stop:      make(chan struct{}),
	}
	if cfg.FlowserverAddr != "" {
		s.fr = flowctl.NewRouter(s.pool, cfg.FlowserverAddr, cfg.Pod, 0, cfg.Clock)
	}
	if cfg.Metrics != nil {
		s.met.register(cfg.Metrics, cfg.ID)
	}
	if err := s.registerHandlers(); err != nil {
		return nil, err
	}
	return s, nil
}

// Start begins serving the control and data endpoints on the given
// listeners and registers with the nameserver at nsAddr (skipped when
// empty, for tests that drive the server directly).
func (s *Server) Start(ctlLn, dataLn net.Listener, nsAddr string) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("dataserver: closed")
	}
	s.dataLn = dataLn
	s.ctlAddr = ctlLn.Addr().String()
	s.dataAddr = dataLn.Addr().String()
	s.mu.Unlock()

	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		_ = s.ctl.Serve(ctlLn)
	}()
	go func() {
		defer s.wg.Done()
		s.serveData(dataLn)
	}()

	if nsAddr == "" {
		return nil
	}
	peer := s.pool.Peer(nsAddr)
	ns := nameserver.NewClient(peer)
	s.mu.Lock()
	s.ns = ns
	s.nsPeer = peer
	s.mu.Unlock()
	info := nameserver.ServerInfo{
		ID:          s.cfg.ID,
		ControlAddr: s.ctlAddr,
		DataAddr:    s.dataAddr,
		Host:        s.cfg.Host,
		Pod:         s.cfg.Pod,
		Rack:        s.cfg.Rack,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ns.Register(ctx, info); err != nil {
		return fmt.Errorf("dataserver: nameserver register: %w", err)
	}

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.heartbeatLoop(peer, ns, info)
	}()
	return nil
}

// heartbeatLoop reports liveness until the server closes. The pooled
// peer redials on its own; what this loop owns is the connection-scoped
// server state on top of it: registration with the nameserver is bound
// to the peer's dial epoch, so after any reconnect (a restarted
// nameserver, a severed link) the server re-registers before heartbeating
// — a restarted nameserver relearns this server instead of declaring it
// dead forever.
func (s *Server) heartbeatLoop(peer *rpc.Peer, ns *nameserver.Client, info nameserver.ServerInfo) {
	registered := peer.Epoch()
	ticker := time.NewTicker(s.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
		}
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.HeartbeatInterval)
		if e := peer.Epoch(); e != registered {
			if err := ns.Register(ctx, info); err != nil {
				s.logf("dataserver %s: re-register: %v", s.cfg.ID, err)
				cancel()
				continue
			}
			registered = peer.Epoch()
		}
		err := ns.Heartbeat(ctx, s.cfg.ID)
		cancel()
		if err != nil {
			// A heartbeat that rode a transparent reconnect may land on a
			// restarted nameserver that no longer knows this server; the
			// epoch check above re-registers on the next tick.
			s.logf("dataserver %s: heartbeat: %v", s.cfg.ID, err)
		}
	}
}

// ControlAddr returns the control endpoint address (after Start).
func (s *Server) ControlAddr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctlAddr
}

// DataAddr returns the bulk data endpoint address (after Start).
func (s *Server) DataAddr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dataAddr
}

// Close stops serving and disconnects from peers and the nameserver.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	dataLn := s.dataLn
	conns := make([]net.Conn, 0, len(s.dataConns))
	for conn := range s.dataConns {
		conns = append(conns, conn)
	}
	s.mu.Unlock()

	close(s.stop)
	err := s.ctl.Close()
	if dataLn != nil {
		dataLn.Close()
	}
	// Sever in-flight bulk streams: a killed server must interrupt its
	// readers (so their failover fires), not leave them mid-stream.
	for _, conn := range conns {
		conn.Close()
	}
	if s.fr != nil {
		s.fr.Close() // the relays' releases leave before the sessions they ride
	}
	s.pool.Close()
	s.bulk.Close()
	s.wg.Wait()
	s.store.close() // after the send loops: a chunk handle closes only when no send holds it
	return err
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf(format, args...)
	}
}

// peer returns the typed control stub for a replica peer, backed by the
// pool's shared session for that address.
func (s *Server) peer(addr string) *Client {
	return NewClient(s.pool.Peer(addr))
}

// --- control plane -------------------------------------------------------

// PrepareArgs creates a file's local state.
type PrepareArgs struct {
	Info nameserver.FileInfo `json:"info"`
	// Relay makes the (primary) receiver propagate the prepare to the
	// other replicas.
	Relay bool `json:"relay,omitempty"`
}

// AppendArgs appends data to a file through its primary. A nonzero Seq
// identifies the piece for deduplication: a re-sent piece (lost ack or
// client failover) with the same Seq is applied at the offset the first
// delivery chose instead of being appended twice. Data travels as the
// frame's raw attachment (rpc.Attached), not in the JSON.
type AppendArgs struct {
	FileID uuid.UUID `json:"fileId"`
	Name   string    `json:"name"`
	Data   []byte    `json:"-"`
	Seq    uint64    `json:"seq,omitempty"`
}

func (a *AppendArgs) Attachment() []byte     { return a.Data }
func (a *AppendArgs) SetAttachment(b []byte) { a.Data = b }

// AppendAtArgs applies a relayed append at a fixed offset. Seq carries
// the originating piece's sequence number so replicas inherit the dedupe
// state (a replica promoted to primary must recognize re-sent pieces it
// already holds). Data is the primary's received slice, attached raw.
type AppendAtArgs struct {
	FileID uuid.UUID `json:"fileId"`
	Offset int64     `json:"offset"`
	Data   []byte    `json:"-"`
	Seq    uint64    `json:"seq,omitempty"`
}

func (a *AppendAtArgs) Attachment() []byte     { return a.Data }
func (a *AppendAtArgs) SetAttachment(b []byte) { a.Data = b }

// AppendReply reports the file size after an append.
type AppendReply struct {
	SizeBytes int64 `json:"sizeBytes"`
}

// FileIDArgs addresses a file by id.
type FileIDArgs struct {
	FileID uuid.UUID `json:"fileId"`
}

// StatReply reports a file's local size.
type StatReply struct {
	SizeBytes int64 `json:"sizeBytes"`
}

func (s *Server) registerHandlers() error {
	return errors.Join(
		MethodPrepare.Handle(s.ctl, func(ctx context.Context, a PrepareArgs) (struct{}, error) {
			return struct{}{}, s.handlePrepare(ctx, a)
		}),
		MethodAppend.Handle(s.ctl, s.handleAppend),
		MethodAppendAt.Handle(s.ctl, func(_ context.Context, a AppendAtArgs) (AppendReply, error) {
			fs, err := s.store.get(a.FileID)
			if err != nil {
				return AppendReply{}, err
			}
			fs.appendMu.Lock()
			size, err := s.store.appendAtLocked(fs, a.Offset, a.Data)
			fs.appendMu.Unlock()
			if err != nil {
				return AppendReply{}, err
			}
			fs.recordSeq(a.Seq, a.Offset)
			return AppendReply{SizeBytes: size}, nil
		}),
		MethodDelete.Handle(s.ctl, func(_ context.Context, a FileIDArgs) (struct{}, error) {
			return struct{}{}, s.store.delete(a.FileID)
		}),
		MethodStat.Handle(s.ctl, func(_ context.Context, a FileIDArgs) (StatReply, error) {
			fs, err := s.store.get(a.FileID)
			if err != nil {
				return StatReply{}, err
			}
			return StatReply{SizeBytes: fs.localSize()}, nil
		}),
		MethodListFiles.Handle(s.ctl, func(context.Context, struct{}) ([]nameserver.FileRecord, error) {
			return s.store.list(), nil
		}),
		MethodScrub.Handle(s.ctl, func(context.Context, struct{}) ([]ChunkFault, error) {
			return s.store.scrub()
		}),
		MethodReplicate.Handle(s.ctl, func(ctx context.Context, a ReplicateArgs) (ReplicateReply, error) {
			size, err := s.replicateFrom(ctx, a)
			return ReplicateReply{SizeBytes: size}, err
		}),
		MethodUpdateMeta.Handle(s.ctl, func(_ context.Context, a UpdateMetaArgs) (struct{}, error) {
			return struct{}{}, s.store.updateInfo(a.Info)
		}),
	)
}

func (s *Server) handlePrepare(ctx context.Context, a PrepareArgs) error {
	if err := s.store.prepare(a.Info); err != nil {
		return err
	}
	if !a.Relay {
		return nil
	}
	if a.Info.Primary().ServerID != s.cfg.ID {
		return fmt.Errorf("%w: %s", ErrNotPrimary, s.cfg.ID)
	}
	for _, rep := range a.Info.Replicas[1:] {
		if err := s.peer(rep.ControlAddr).Prepare(ctx, PrepareArgs{Info: a.Info}); err != nil {
			return fmt.Errorf("relay prepare to %s: %w", rep.ServerID, err)
		}
	}
	return nil
}

// handleAppend orders an append as the file's primary: apply locally,
// relay to the other replicas, report the new size to the nameserver.
func (s *Server) handleAppend(ctx context.Context, a AppendArgs) (AppendReply, error) {
	if len(a.Data) > MaxAppend {
		return AppendReply{}, fmt.Errorf("dataserver: append of %d bytes exceeds %d", len(a.Data), MaxAppend)
	}
	fs, err := s.store.get(a.FileID)
	if err != nil {
		return AppendReply{}, err
	}
	info := fs.getInfo()
	if info.Primary().ServerID != s.cfg.ID {
		return AppendReply{}, fmt.Errorf("%w: primary is %s", ErrNotPrimary, info.Primary().ServerID)
	}

	// Hold the append order for the whole relay so concurrent appends
	// see consistent offsets on every replica.
	fs.appendMu.Lock()
	defer fs.appendMu.Unlock()
	s.met.appends.Inc()

	offset := fs.localSize()
	if prev, ok := fs.lookupSeq(a.Seq); ok {
		// Re-sent piece: land it at the offset the first delivery chose.
		// The local apply below no-ops via the duplicate check and the
		// relay heals any replica that missed the original delivery.
		offset = prev
		s.met.appendDedups.Inc()
	} else {
		// Record before applying or relaying: if the relay fails after
		// the local apply, the retry must reuse this offset, not append
		// the piece again after the locally applied bytes.
		fs.recordSeq(a.Seq, offset)
	}
	size, err := s.store.appendAtLocked(fs, offset, a.Data)
	if err != nil {
		return AppendReply{}, err
	}
	order, flows, flowStub := s.planRelay(ctx, info, float64(len(a.Data))*8)
	var relayErr error
	for _, rep := range order {
		if _, err := s.peer(rep.ControlAddr).AppendAt(ctx,
			AppendAtArgs{FileID: a.FileID, Offset: offset, Data: a.Data, Seq: a.Seq}); err != nil {
			relayErr = fmt.Errorf("relay append to %s: %w", rep.ServerID, err)
			break
		}
	}
	if flowStub != nil {
		// Queued (no round trip under the append order) on the stub that
		// issued them: under directory routing only the coordinating shard
		// knows the flows, not whichever shard a later resolution names.
		flowStub.Release(flows...)
	}
	if relayErr != nil {
		return AppendReply{}, relayErr
	}

	s.mu.Lock()
	ns := s.ns
	s.mu.Unlock()
	if ns != nil && a.Name != "" {
		if err := ns.ReportSize(ctx, a.Name, size); err != nil {
			// The size report is advisory; readers learn the size from
			// the dataserver on every read anyway.
			s.logf("dataserver %s: report size of %s: %v", s.cfg.ID, a.Name, err)
		}
	}
	return AppendReply{SizeBytes: size}, nil
}

// flowserverRPCTimeout bounds each control exchange with the Flowserver
// on the append relay path; a slow controller must degrade the write to
// static order, not stall it.
const flowserverRPCTimeout = 2 * time.Second

// planRelay orders the replication fan-out for one append. With a
// Flowserver configured the order comes from SelectWritePipeline —
// cheapest hop first, every hop's admission visible to the next — and
// the returned ids keep the transfers registered in the network model
// until the append releases them. Any failure falls back to the static
// replica order: the Flowserver is an optimizer, never a dependency
// (mirroring the read path's degraded mode).
func (s *Server) planRelay(ctx context.Context, info nameserver.FileInfo, bits float64) ([]nameserver.ReplicaLoc, []flowserver.FlowID, *flowserver.RPCClient) {
	rest := info.Replicas[1:]
	if len(rest) == 0 {
		return rest, nil, nil
	}
	if s.fr == nil {
		s.met.relayStatic.Inc()
		return rest, nil, nil
	}
	sctx, cancel := context.WithTimeout(ctx, flowserverRPCTimeout)
	defer cancel()
	byHost := make(map[string]nameserver.ReplicaLoc, len(rest))
	hosts := make([]string, len(rest))
	for i, rep := range rest {
		hosts[i] = rep.Host
		byHost[rep.Host] = rep
	}
	// A failed call may mean the cached shard was killed: Do re-resolves
	// (picking up a freshly promoted shard under a newer epoch) and
	// retries once before this append degrades.
	var as []flowserver.AssignmentDTO
	fsc, err := s.fr.Do(sctx, func(fs *flowserver.RPCClient) (err error) {
		as, err = fs.SelectWrite(sctx, flowserver.SelectWriteArgs{
			SourceHost:  s.cfg.Host,
			TargetHosts: hosts,
			Bits:        bits,
		})
		return err
	})
	if err != nil {
		s.met.relayStatic.Inc()
		return rest, nil, nil
	}
	order := make([]nameserver.ReplicaLoc, 0, len(as))
	flows := make([]flowserver.FlowID, 0, len(as))
	for _, a := range as {
		if !a.Local {
			flows = append(flows, a.FlowID)
		}
		rep, ok := byHost[a.ReplicaHost]
		if !ok {
			break
		}
		order = append(order, rep)
	}
	if len(order) != len(rest) {
		// The schedule does not cover the replica set (e.g. two replicas
		// sharing a host); release what it admitted and go static.
		fsc.Release(flows...)
		s.met.relayStatic.Inc()
		return rest, nil, nil
	}
	s.met.relayScheduled.Inc()
	return order, flows, fsc
}

// --- data plane ----------------------------------------------------------

// The bulk read protocol (Bulk in bulk.go is its one client): over a TCP
// connection the client sends fixed 40-byte requests
//
//	flowID(8) fileID(16) offset(8) length(8)
//
// one after another, each once the previous reply is consumed. The server
// answers each with status(1); on success the reply continues with
// fileSize(8) followed by exactly length bytes of data, which leave the
// page cache by sendfile(2), one call per quantum the flow's gate grants
// (sendfile.go). On failure a message string follows (length-prefixed
// with 2 bytes).
//
// Either side may close between requests, and does once the connection
// idles past its limit (the client's is the shorter) or it shuts down.
// Both close after any failure: an error reply, or a stream that broke
// past its success header, where anything else would be taken for data.
const (
	dataStatusOK  = byte(0)
	dataStatusErr = byte(1)

	// dataIdleLimit is how long the server waits for the next request
	// before closing a connection: twice the client's limit, so a pooled
	// connection is dropped by its client first.
	dataIdleLimit = 2 * bulkIdleLimit
)

func (s *Server) serveData(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		out, err := newSender(conn, s.stop)
		if err != nil {
			s.logf("dataserver %s: closing data connection from %s: %v", s.cfg.ID, conn.RemoteAddr(), err)
			conn.Close()
			continue
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.dataConns[conn] = struct{}{}
		s.mu.Unlock()
		s.met.dataConns.Add(1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			// Requests are answered back to back until the peer closes, a
			// read fails, or the connection idles out; the header array and
			// the send loop are per connection, not per request.
			var hdr [40]byte
			for s.serveRead(conn, out, &hdr) {
			}
			s.mu.Lock()
			delete(s.dataConns, conn)
			s.mu.Unlock()
			s.met.dataConns.Add(-1)
			conn.Close()
		}()
	}
}

// serveRead awaits and answers one request through hdr (request in, reply
// header out) and reports whether the connection may carry another.
func (s *Server) serveRead(conn net.Conn, out *sender, hdr *[40]byte) bool {
	_ = conn.SetReadDeadline(time.Now().Add(s.dataIdle)) // fails only on a closed conn, as the read then does
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return false
	}
	flowID, fileID := binary.BigEndian.Uint64(hdr[0:8]), uuid.UUID(hdr[8:24])
	offset, length := int64(binary.BigEndian.Uint64(hdr[24:32])), int64(binary.BigEndian.Uint64(hdr[32:40]))
	// Validate before committing to a success header.
	fs, err := s.store.get(fileID)
	var size int64
	if err == nil {
		size = fs.localSize()
		if offset < 0 || length < 0 || offset+length > size {
			err = fmt.Errorf("%w: [%d, %d) of %d", ErrOutOfRange, offset, offset+length, size)
		}
	}
	if err != nil {
		msg := err.Error()
		msg = msg[:min(len(msg), 65535)]
		reply := binary.BigEndian.AppendUint16([]byte{dataStatusErr}, uint16(len(msg)))
		_, _ = conn.Write(append(reply, msg...)) // best effort: the connection closes either way
		return false
	}

	hdr[0] = dataStatusOK
	binary.BigEndian.PutUint64(hdr[1:9], uint64(size))
	if _, err := conn.Write(hdr[:9]); err != nil {
		return false
	}
	out.gate = s.cfg.Pacer.Pace(flowID)
	if _, err := s.store.readAt(fileID, offset, length, out.send); err != nil {
		s.logf("dataserver %s: read %s: %v", s.cfg.ID, fileID, err)
		return false
	}
	s.met.readsServed.Inc()
	return true
}
