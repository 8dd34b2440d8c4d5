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

// fileState is the in-memory handle for one stored file.
type fileState struct {
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

// storage manages the on-disk chunk store.
type storage struct {
	root string

	mu    sync.Mutex
	files map[uuid.UUID]*fileState
}

// openStorage opens root, loading any files already on disk (this is also
// the recovery path the nameserver's rebuild scan depends on).
func openStorage(root string) (*storage, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("dataserver: create root: %w", err)
	}
	st := &storage{root: root, files: make(map[uuid.UUID]*fileState)}

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
// chunk files.
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
	var size int64
	for chunk := 1; ; chunk++ {
		fi, err := os.Stat(st.chunkPath(id, chunk))
		if err != nil {
			break
		}
		size += fi.Size()
	}
	return &fileState{info: info, size: size}, nil
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
	body, err := json.Marshal(info)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, metaFileName), body, 0o644); err != nil {
		return fmt.Errorf("dataserver: write meta: %w", err)
	}
	st.files[info.ID] = &fileState{info: info}
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
	return st.appendAtLocked(fs, id, offset, data)
}

// appendAtLocked is appendAt for callers already holding fs.appendMu (the
// primary holds it across the whole relay so concurrent appends see
// consistent offsets everywhere).
func (st *storage) appendAtLocked(fs *fileState, id uuid.UUID, offset int64, data []byte) (int64, error) {
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
	remaining := data
	for len(remaining) > 0 {
		chunk := int(pos/chunkSize) + 1
		within := pos % chunkSize
		room := chunkSize - within
		n := int64(len(remaining))
		if n > room {
			n = room
		}
		f, err := os.OpenFile(st.chunkPath(id, chunk), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fs.localSize(), fmt.Errorf("dataserver: open chunk %d: %w", chunk, err)
		}
		if _, err := f.Write(remaining[:n]); err != nil {
			f.Close()
			return fs.localSize(), fmt.Errorf("dataserver: write chunk %d: %w", chunk, err)
		}
		if err := f.Close(); err != nil {
			return fs.localSize(), fmt.Errorf("dataserver: close chunk %d: %w", chunk, err)
		}
		if err := st.updateChunkCRC(id, chunk, remaining[:n]); err != nil {
			return fs.localSize(), fmt.Errorf("dataserver: checksum chunk %d: %w", chunk, err)
		}
		pos += n
		remaining = remaining[n:]
	}

	fs.mu.Lock()
	fs.size = pos
	fs.mu.Unlock()
	return pos, nil
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
		n := chunkSize - within
		if n > remaining {
			n = remaining
		}
		f, err := os.Open(st.chunkPath(id, chunk))
		if err != nil {
			return size, fmt.Errorf("dataserver: open chunk %d: %w", chunk, err)
		}
		err = send(f, within, n)
		f.Close()
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
	body, err := json.Marshal(info)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(st.dirOf(info.ID), metaFileName), body, 0o644); err != nil {
		return fmt.Errorf("dataserver: rewrite meta: %w", err)
	}
	fs.mu.Lock()
	fs.info = info
	fs.mu.Unlock()
	return nil
}

// delete removes a file's directory and state. Unknown files are a no-op
// (the replica may never have been prepared).
func (st *storage) delete(id uuid.UUID) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.files[id]; !ok {
		return nil
	}
	delete(st.files, id)
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
