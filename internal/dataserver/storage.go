// Package dataserver implements Mayflower's chunk storage server
// (§3.3.2 of the paper). Each file is a directory in the dataserver's
// local filesystem named by the file's UUID; the directory holds a
// metadata file plus the chunks as numbered files (the first chunk is
// "1", the second "2", ...). Appends are atomic and ordered by the file's
// primary dataserver, which relays them to the other replica hosts while
// applying them locally. Reads are served concurrently with an append as
// long as they do not touch the last (still growing) chunk.
package dataserver

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"github.com/mayflower-dfs/mayflower/internal/nameserver"
	"github.com/mayflower-dfs/mayflower/internal/uuid"
)

// Well-known storage errors.
var (
	ErrUnknownFile   = errors.New("dataserver: unknown file")
	ErrOffsetGap     = errors.New("dataserver: append offset does not match local size")
	ErrOutOfRange    = errors.New("dataserver: read beyond end of file")
	ErrNotPrimary    = errors.New("dataserver: this server is not the file's primary")
	ErrAlreadyExists = errors.New("dataserver: file already exists")
)

const metaFileName = "meta.json"

// maxOpenChunks caps a storage's idle chunk handles: the testbed runs 16
// dataservers in one process, each benchmark catalog ≤ 12 chunks a server.
const maxOpenChunks = 32

// fileState is the in-memory handle for one stored file.
type fileState struct {
	id   uuid.UUID
	gone bool // deleted or closed: no chunk handle opens on it again (storage.hmu)

	info nameserver.FileInfo

	// appendMu serializes appends: the dataserver services one append at
	// a time per file (§3.3.2).
	appendMu sync.Mutex

	// tailMu guards the last chunk: appends hold it exclusively, reads
	// that touch the last chunk hold it shared; reads of earlier
	// (immutable) chunks skip it entirely.
	tailMu sync.RWMutex

	// mu guards size.
	mu   sync.Mutex
	size int64

	// seqMu guards the append-dedupe records: the offset each recent
	// append sequence number was applied at, with insertion order kept
	// for eviction. Replicas record relayed sequences too, so a replica
	// promoted to primary by repair inherits the dedupe state for pieces
	// it already holds.
	seqMu    sync.Mutex
	seqOff   map[uint64]int64
	seqOrder []uint64
}

// maxSeqRecords bounds the per-file append-dedupe memory. Re-sent pieces
// arrive within a handful of client retry windows, so only a short
// window of recent sequence numbers ever matters.
const maxSeqRecords = 1024

// recordSeq remembers the offset an append sequence number was assigned,
// so a re-sent piece (lost ack, client failover) is applied at the same
// offset instead of appended twice. Oldest records are evicted first;
// sequence 0 means "no dedupe" and is never recorded.
func (f *fileState) recordSeq(seq uint64, offset int64) {
	if seq == 0 {
		return
	}
	f.seqMu.Lock()
	defer f.seqMu.Unlock()
	if f.seqOff == nil {
		f.seqOff = make(map[uint64]int64)
	}
	if _, ok := f.seqOff[seq]; !ok {
		f.seqOrder = append(f.seqOrder, seq)
		if len(f.seqOrder) > maxSeqRecords {
			delete(f.seqOff, f.seqOrder[0])
			f.seqOrder = f.seqOrder[1:]
		}
	}
	f.seqOff[seq] = offset
}

// lookupSeq returns the offset a sequence number was applied at, if it is
// still in the dedupe window.
func (f *fileState) lookupSeq(seq uint64) (int64, bool) {
	if seq == 0 {
		return 0, false
	}
	f.seqMu.Lock()
	defer f.seqMu.Unlock()
	off, ok := f.seqOff[seq]
	return off, ok
}

func (f *fileState) localSize() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.size
}

// getInfo returns a copy of the file's metadata (which re-replication may
// rewrite at runtime).
func (f *fileState) getInfo() nameserver.FileInfo {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.info
}

func (f *fileState) chunkSize() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.info.ChunkSize
}

// chunkKey names one chunk of one stored file.
type chunkKey struct {
	fs    *fileState
	chunk int
}

// chunkFile is one open chunk, shared by its readers and its appender. A
// tail also holds its sidecar and running checksum, which change only
// under the file's tailMu held exclusively.
type chunkFile struct {
	f    *os.File
	rw   bool   // f is writable; reads open chunks read-only
	refs int    // holders; f closes only at 0, since sendfile(2) is handed its raw descriptor
	used uint64 // storage.tick at the last acquire, for LRU eviction
	dead bool   // dropped from the table while held: the last release closes it

	sum    *os.File // the "<n>.crc" sidecar; nil unless the chunk is a tail
	crc    uint32   // CRC-32 of the chunk's first crcLen bytes
	crcLen int64
}

func (e *chunkFile) close() {
	e.f.Close()
	if e.sum != nil {
		e.sum.Close()
	}
}

// storage manages the on-disk chunk store.
type storage struct {
	root string

	mu    sync.Mutex
	files map[uuid.UUID]*fileState

	// The open chunks; hmu guards them, their refs, used and dead.
	hmu  sync.Mutex
	open map[chunkKey]*chunkFile
	tick uint64
}

// openStorage opens root, loading any files already on disk (this is also
// the recovery path the nameserver's rebuild scan depends on).
func openStorage(root string) (*storage, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("dataserver: create root: %w", err)
	}
	st := &storage{root: root, files: make(map[uuid.UUID]*fileState), open: make(map[chunkKey]*chunkFile)}

	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("dataserver: scan root: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		id, err := uuid.Parse(e.Name())
		if err != nil {
			continue // not a file directory
		}
		fs, err := st.loadFile(id)
		if err != nil {
			continue // torn create: skip, the nameserver never saw it
		}
		st.files[id] = fs
	}
	return st, nil
}

func (st *storage) dirOf(id uuid.UUID) string { return filepath.Join(st.root, id.String()) }

func (st *storage) chunkPath(id uuid.UUID, chunk int) string {
	return filepath.Join(st.dirOf(id), strconv.Itoa(chunk))
}

// loadFile reads a file's metadata and measures its local size from the
// chunk files. It heals a partial last chunk's sidecar (healTail); sealed
// chunks are not recomputed, so their bit rot still shows.
func (st *storage) loadFile(id uuid.UUID) (*fileState, error) {
	body, err := os.ReadFile(filepath.Join(st.dirOf(id), metaFileName))
	if err != nil {
		return nil, err
	}
	var info nameserver.FileInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return nil, err
	}
	if info.ChunkSize <= 0 {
		return nil, fmt.Errorf("dataserver: file %s has chunk size %d", id, info.ChunkSize)
	}
	var size, last int64
	chunk := 1
	for ; ; chunk++ {
		fi, err := os.Stat(st.chunkPath(id, chunk))
		if err != nil {
			break
		}
		size, last = size+fi.Size(), fi.Size()
	}
	if chunk > 1 && last < info.ChunkSize {
		_ = st.healTail(id, chunk-1) // on failure the chunk is served as it is, and scrub reports it
	}
	return &fileState{id: id, info: info, size: size}, nil
}

// writeMeta replaces dir's metadata by writing a temporary file beside it
// and renaming that over it, so a reader or a restart sees the old
// metadata or the new, never a truncated file.
func writeMeta(dir string, info nameserver.FileInfo) error {
	body, err := json.Marshal(info)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, metaFileName+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(body)
	if err = errors.Join(err, tmp.Close()); err == nil {
		return os.Rename(tmp.Name(), filepath.Join(dir, metaFileName))
	}
	os.Remove(tmp.Name())
	return err
}

// prepare creates the directory and metadata for a new file. Preparing an
// existing file with the same id is idempotent.
func (st *storage) prepare(info nameserver.FileInfo) error {
	if info.ChunkSize <= 0 {
		return fmt.Errorf("dataserver: chunk size %d", info.ChunkSize)
	}
	if info.ID.IsZero() {
		return errors.New("dataserver: zero file id")
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.files[info.ID]; ok {
		return nil
	}
	dir := st.dirOf(info.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("dataserver: prepare: %w", err)
	}
	if err := writeMeta(dir, info); err != nil {
		return fmt.Errorf("dataserver: write meta: %w", err)
	}
	st.files[info.ID] = &fileState{id: info.ID, info: info}
	return nil
}

func (st *storage) get(id uuid.UUID) (*fileState, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	fs, ok := st.files[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownFile, id)
	}
	return fs, nil
}

// acquire returns the chunk's shared handle, opening the chunk with flag
// unless the table holds a handle that serves it: any serves os.O_RDONLY,
// only a writable one a write. release must follow.
func (st *storage) acquire(fs *fileState, chunk int, flag int) (*chunkFile, error) {
	key, rw := chunkKey{fs, chunk}, flag != os.O_RDONLY
	st.hmu.Lock()
	defer st.hmu.Unlock()
	e := st.open[key]
	if e == nil || rw && !e.rw {
		// Open outside hmu: a chunk create costs hundreds of µs on ext4,
		// which reads of the store's other chunks must not wait out.
		st.hmu.Unlock()
		f, err := os.OpenFile(st.chunkPath(fs.id, chunk), flag, 0o644)
		st.hmu.Lock()
		switch e = st.open[key]; {
		case err != nil:
			return nil, err
		case fs.gone:
			f.Close()
			return nil, fmt.Errorf("%w: %s", ErrUnknownFile, fs.id)
		case e != nil && (e.rw || !rw):
			f.Close() // a concurrent acquire opened it first
		default:
			if e != nil {
				st.retire(key, e) // a read-only handle, superseded for a write
			}
			e = &chunkFile{f: f, rw: rw}
			st.open[key] = e
		}
	}
	st.tick++
	e.used, e.refs = st.tick, e.refs+1
	// Past the cap, close least-recently-used idle handles. Held ones
	// are never evicted, so a table of held handles may run over.
	for len(st.open) > maxOpenChunks {
		var lru chunkKey
		var victim *chunkFile
		for k, c := range st.open {
			if c.refs == 0 && (victim == nil || c.used < victim.used) {
				lru, victim = k, c
			}
		}
		if victim == nil {
			break
		}
		st.retire(lru, victim)
	}
	return e, nil
}

// retire removes k's handle e from the table; if e is held, its last
// release closes it. The caller holds hmu.
func (st *storage) retire(k chunkKey, e *chunkFile) {
	delete(st.open, k)
	if e.dead = e.refs > 0; !e.dead {
		e.close()
	}
}

func (st *storage) release(e *chunkFile) {
	st.hmu.Lock()
	defer st.hmu.Unlock()
	if e.refs--; e.refs == 0 && e.dead {
		e.close()
	}
}

// drop marks fs gone and removes its chunks from the table; a held one
// closes when its last holder releases it.
func (st *storage) drop(fs *fileState) {
	st.hmu.Lock()
	defer st.hmu.Unlock()
	fs.gone = true
	for k, e := range st.open {
		if k.fs == fs {
			st.retire(k, e)
		}
	}
}

// close releases every chunk handle; the store serves nothing after it.
func (st *storage) close() {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, fs := range st.files {
		st.drop(fs)
	}
}

// appendAt writes data at the given offset, which must equal the current
// local size (appends only; the check makes relayed appends idempotent to
// re-delivery and detects gaps). It returns the new local size.
func (st *storage) appendAt(id uuid.UUID, offset int64, data []byte) (int64, error) {
	fs, err := st.get(id)
	if err != nil {
		return 0, err
	}
	fs.appendMu.Lock()
	defer fs.appendMu.Unlock()
	return st.appendAtLocked(fs, offset, data)
}

// appendAtLocked is appendAt for callers already holding fs.appendMu (the
// primary holds it across the whole relay so concurrent appends see
// consistent offsets everywhere).
func (st *storage) appendAtLocked(fs *fileState, offset int64, data []byte) (int64, error) {
	cur := fs.localSize()
	if offset != cur {
		if offset+int64(len(data)) <= cur {
			return cur, nil // duplicate delivery of an applied append
		}
		return cur, fmt.Errorf("%w: offset %d, local size %d", ErrOffsetGap, offset, cur)
	}

	fs.tailMu.Lock()
	defer fs.tailMu.Unlock()

	chunkSize := fs.chunkSize()
	pos := offset
	for len(data) > 0 {
		chunk, within := int(pos/chunkSize)+1, pos%chunkSize
		n := min(int64(len(data)), chunkSize-within)
		if err := st.writeTail(fs, chunk, within, data[:n], within+n == chunkSize); err != nil {
			return fs.localSize(), fmt.Errorf("dataserver: write chunk %d: %w", chunk, err)
		}
		pos += n
		data = data[n:]
	}

	fs.mu.Lock()
	fs.size = pos
	fs.mu.Unlock()
	return pos, nil
}

// writeTail writes p at within in the tail chunk and folds it into the
// checksum: one positional write of the payload, one of the 4-byte
// sidecar. Writing at within lets a retried piece overwrite a failed
// attempt's torn bytes. A piece that fills the chunk seals it, closing
// the sidecar. The caller holds fs.tailMu.
func (st *storage) writeTail(fs *fileState, chunk int, within int64, p []byte, seal bool) error {
	e, err := st.acquire(fs, chunk, os.O_RDWR|os.O_CREATE)
	if err != nil {
		return err
	}
	defer st.release(e)
	if e.sum == nil || e.crcLen != within {
		if err := st.loadTail(fs, chunk, e, within); err != nil {
			return err
		}
	}
	if _, err := e.f.WriteAt(p, within); err != nil {
		return err
	}
	crc := crc32.Update(e.crc, crc32.IEEETable, p)
	if err := writeCRC(e.sum, crc); err != nil {
		return err
	}
	e.crc, e.crcLen = crc, within+int64(len(p))
	if seal {
		err = e.sum.Close()
		e.sum = nil
	}
	return err
}

// loadTail readies e to take bytes at within: it opens the sidecar and
// sets the running checksum over the chunk's first within bytes. The
// sidecar is trusted if the chunk holds exactly within bytes, as after
// every completed append; else (past within lie a failed write's torn
// bytes) the checksum is recomputed, and stored if it differs.
func (st *storage) loadTail(fs *fileState, chunk int, e *chunkFile, within int64) error {
	want, ok, err := st.loadChunkCRC(fs.id, chunk)
	crc := want
	if fi, statErr := e.f.Stat(); err != nil || !ok || statErr != nil || fi.Size() != within {
		if crc, err = chunkCRC(e.f, within); err != nil {
			return err
		}
	}
	if e.sum == nil {
		if e.sum, err = os.OpenFile(st.crcPath(fs.id, chunk), os.O_RDWR|os.O_CREATE, 0o644); err != nil {
			return err
		}
	}
	e.crc, e.crcLen = crc, within
	if ok && crc == want {
		return nil
	}
	return writeCRC(e.sum, crc)
}

// readAt hands send the length bytes starting at offset, as one open
// chunk and range at a time; send must consume exactly that range or
// fail. It returns the file's current local size (Mayflower dataservers
// include the file size with every read result so clients discover
// appended chunks, §3.3). Reads that touch the last chunk serialize
// against in-flight appends.
func (st *storage) readAt(id uuid.UUID, offset, length int64, send func(f *os.File, off, n int64) error) (int64, error) {
	fs, err := st.get(id)
	if err != nil {
		return 0, err
	}
	if offset < 0 || length < 0 {
		return fs.localSize(), fmt.Errorf("%w: offset %d length %d", ErrOutOfRange, offset, length)
	}

	size := fs.localSize()
	if offset+length > size {
		return size, fmt.Errorf("%w: [%d, %d) of %d", ErrOutOfRange, offset, offset+length, size)
	}
	// Lock the tail only if the range touches the final chunk.
	chunkSize := fs.chunkSize()
	lastChunk := int((size - 1) / chunkSize)
	endChunk := int((offset + length - 1) / chunkSize)
	if length > 0 && endChunk >= lastChunk {
		fs.tailMu.RLock()
		defer fs.tailMu.RUnlock()
	}

	pos := offset
	remaining := length
	for remaining > 0 {
		chunk := int(pos/chunkSize) + 1
		within := pos % chunkSize
		n := min(chunkSize-within, remaining)
		e, err := st.acquire(fs, chunk, os.O_RDONLY)
		if err != nil {
			return size, fmt.Errorf("dataserver: open chunk %d: %w", chunk, err)
		}
		err = send(e.f, within, n)
		st.release(e)
		if err != nil {
			return size, fmt.Errorf("dataserver: read chunk %d: %w", chunk, err)
		}
		pos += n
		remaining -= n
	}
	return size, nil
}

// updateInfo rewrites a stored file's metadata (same id; e.g. a repaired
// replica set or a promoted primary after re-replication).
func (st *storage) updateInfo(info nameserver.FileInfo) error {
	fs, err := st.get(info.ID)
	if err != nil {
		return err
	}
	if info.ChunkSize != fs.chunkSize() {
		return fmt.Errorf("dataserver: cannot change chunk size of %s", info.ID)
	}
	if err := writeMeta(st.dirOf(info.ID), info); err != nil {
		return fmt.Errorf("dataserver: rewrite meta: %w", err)
	}
	fs.mu.Lock()
	fs.info = info
	fs.mu.Unlock()
	return nil
}

// delete removes a file's directory, state and chunk handles. Unknown
// files are a no-op (the replica may never have been prepared).
func (st *storage) delete(id uuid.UUID) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	fs, ok := st.files[id]
	if !ok {
		return nil
	}
	delete(st.files, id)
	st.drop(fs)
	return os.RemoveAll(st.dirOf(id))
}

// list reports every stored file with its local size, for the nameserver
// rebuild scan.
func (st *storage) list() []nameserver.FileRecord {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]nameserver.FileRecord, 0, len(st.files))
	for _, fs := range st.files {
		out = append(out, nameserver.FileRecord{
			Info:           fs.getInfo(),
			LocalSizeBytes: fs.localSize(),
		})
	}
	return out
}
