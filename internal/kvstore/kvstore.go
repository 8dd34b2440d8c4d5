// Package kvstore is an embedded, persistent key-value store standing in
// for LevelDB in the Mayflower nameserver (§3.3.1, §5 of the paper).
//
// The design matches how the paper actually uses LevelDB:
//
//   - all reads are served from memory (the nameserver is provisioned so
//     the whole mapping fits in RAM);
//   - writes append to a write-ahead log, with fsync configurable and off
//     by default ("LevelDB is configured with fsync off in order to speed
//     up file creation and deletion");
//   - the persistent state exists to make graceful restarts fast; after a
//     crash the nameserver rebuilds from the dataservers anyway, so the
//     store only guarantees a consistent prefix of writes.
//
// On disk a store directory holds a snapshot file (a compacted image,
// replaced atomically) and a WAL. Recovery loads the snapshot and replays
// the WAL, discarding a torn tail record if the process died mid-append.
package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

const (
	snapshotName = "SNAPSHOT"
	walName      = "WAL"

	opPut    = byte(1)
	opDelete = byte(2)

	maxKeyLen   = 1 << 20
	maxValueLen = 64 << 20
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("kvstore: store is closed")

// Options configure a store.
type Options struct {
	// SyncWrites forces an fsync after every logged write. The paper runs
	// with this off for speed; turn it on for stronger durability.
	SyncWrites bool
}

// Store is an in-memory map with write-ahead logging and snapshot
// compaction. All methods are safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	mu     sync.RWMutex
	mem    map[string][]byte
	wal    *os.File
	closed bool
}

// Open opens (or creates) the store in dir.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("kvstore: create dir: %w", err)
	}
	s := &Store{dir: dir, opts: opts, mem: make(map[string][]byte)}

	if err := s.loadFile(filepath.Join(dir, snapshotName)); err != nil {
		return nil, fmt.Errorf("kvstore: load snapshot: %w", err)
	}
	walPath := filepath.Join(dir, walName)
	if err := s.loadFile(walPath); err != nil {
		return nil, fmt.Errorf("kvstore: replay wal: %w", err)
	}
	wal, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("kvstore: open wal: %w", err)
	}
	s.wal = wal
	return s, nil
}

// loadFile replays a record file into the memtable. A corrupt or torn
// record ends the replay (the consistent prefix wins); if the corruption
// is in the WAL, the file is truncated to the valid prefix so new appends
// do not land after garbage.
func (s *Store) loadFile(path string) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()

	var validOffset int64
	r := newRecordReader(f)
	for {
		op, key, val, err := r.next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			// Torn tail: keep the valid prefix.
			if strings.HasSuffix(path, walName) {
				if terr := os.Truncate(path, validOffset); terr != nil {
					return fmt.Errorf("truncate torn wal: %w", terr)
				}
			}
			break
		}
		validOffset = r.offset
		switch op {
		case opPut:
			s.mem[string(key)] = val
		case opDelete:
			delete(s.mem, string(key))
		}
	}
	return nil
}

type recordReader struct {
	r      io.Reader
	offset int64
}

func newRecordReader(r io.Reader) *recordReader { return &recordReader{r: r} }

// next reads one record: op(1) keyLen(4) valLen(4) key val crc(4).
func (rr *recordReader) next() (op byte, key, val []byte, err error) {
	var hdr [9]byte
	if _, err := io.ReadFull(rr.r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, nil, fmt.Errorf("kvstore: torn header: %w", err)
		}
		return 0, nil, nil, err
	}
	op = hdr[0]
	keyLen := binary.BigEndian.Uint32(hdr[1:5])
	valLen := binary.BigEndian.Uint32(hdr[5:9])
	if op != opPut && op != opDelete {
		return 0, nil, nil, fmt.Errorf("kvstore: bad op %d", op)
	}
	if keyLen > maxKeyLen || valLen > maxValueLen {
		return 0, nil, nil, fmt.Errorf("kvstore: implausible record lengths %d/%d", keyLen, valLen)
	}
	body := make([]byte, int(keyLen)+int(valLen)+4)
	if _, err := io.ReadFull(rr.r, body); err != nil {
		return 0, nil, nil, fmt.Errorf("kvstore: torn body: %w", err)
	}
	crc := binary.BigEndian.Uint32(body[len(body)-4:])
	sum := crc32.NewIEEE()
	_, _ = sum.Write(hdr[:])
	_, _ = sum.Write(body[:len(body)-4])
	if sum.Sum32() != crc {
		return 0, nil, nil, errors.New("kvstore: checksum mismatch")
	}
	key = body[:keyLen]
	val = body[keyLen : keyLen+valLen]
	rr.offset += int64(9 + len(body))
	return op, key, val, nil
}

func encodeRecord(op byte, key, val []byte) []byte {
	buf := make([]byte, 9+len(key)+len(val)+4)
	buf[0] = op
	binary.BigEndian.PutUint32(buf[1:5], uint32(len(key)))
	binary.BigEndian.PutUint32(buf[5:9], uint32(len(val)))
	copy(buf[9:], key)
	copy(buf[9+len(key):], val)
	sum := crc32.ChecksumIEEE(buf[:len(buf)-4])
	binary.BigEndian.PutUint32(buf[len(buf)-4:], sum)
	return buf
}

// Get returns the value stored at key. The returned slice is a copy.
func (s *Store) Get(key []byte) ([]byte, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	v, ok := s.mem[string(key)]
	if !ok {
		return nil, false, nil
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out, true, nil
}

// Put stores value at key.
func (s *Store) Put(key, value []byte) error {
	if len(key) == 0 {
		return errors.New("kvstore: empty key")
	}
	if len(key) > maxKeyLen || len(value) > maxValueLen {
		return fmt.Errorf("kvstore: key/value too large (%d/%d)", len(key), len(value))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.appendLocked(opPut, key, value); err != nil {
		return err
	}
	v := make([]byte, len(value))
	copy(v, value)
	s.mem[string(key)] = v
	return nil
}

// Delete removes key. Deleting an absent key is a no-op (still logged, so
// it replays identically).
func (s *Store) Delete(key []byte) error {
	if len(key) == 0 {
		return errors.New("kvstore: empty key")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.appendLocked(opDelete, key, nil); err != nil {
		return err
	}
	delete(s.mem, string(key))
	return nil
}

func (s *Store) appendLocked(op byte, key, val []byte) error {
	rec := encodeRecord(op, key, val)
	if _, err := s.wal.Write(rec); err != nil {
		return fmt.Errorf("kvstore: wal append: %w", err)
	}
	if s.opts.SyncWrites {
		if err := s.wal.Sync(); err != nil {
			return fmt.Errorf("kvstore: wal sync: %w", err)
		}
	}
	return nil
}

// Range calls fn for every key with the given prefix, in ascending key
// order, until fn returns false. Keys and values passed to fn are copies.
func (s *Store) Range(prefix []byte, fn func(key, value []byte) bool) error {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	keys := make([]string, 0, len(s.mem))
	p := string(prefix)
	for k := range s.mem {
		if strings.HasPrefix(k, p) {
			keys = append(keys, k)
		}
	}
	// Copy values under the read lock so fn runs without holding it.
	sort.Strings(keys)
	type kv struct {
		k string
		v []byte
	}
	items := make([]kv, 0, len(keys))
	for _, k := range keys {
		v := s.mem[k]
		vc := make([]byte, len(v))
		copy(vc, v)
		items = append(items, kv{k: k, v: vc})
	}
	s.mu.RUnlock()

	for _, it := range items {
		if !fn([]byte(it.k), it.v) {
			break
		}
	}
	return nil
}

// Len returns the number of live keys.
func (s *Store) Len() (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return 0, ErrClosed
	}
	return len(s.mem), nil
}

// Compact writes the current state to a fresh snapshot (atomically
// replacing the old one) and truncates the WAL.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	tmp, err := os.CreateTemp(s.dir, "snapshot-*")
	if err != nil {
		return fmt.Errorf("kvstore: compact: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after successful rename

	keys := make([]string, 0, len(s.mem))
	for k := range s.mem {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := tmp.Write(encodeRecord(opPut, []byte(k), s.mem[k])); err != nil {
			tmp.Close()
			return fmt.Errorf("kvstore: compact write: %w", err)
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("kvstore: compact sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("kvstore: compact close: %w", err)
	}
	if err := os.Rename(tmpName, filepath.Join(s.dir, snapshotName)); err != nil {
		return fmt.Errorf("kvstore: compact rename: %w", err)
	}
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("kvstore: truncate wal: %w", err)
	}
	if _, err := s.wal.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("kvstore: rewind wal: %w", err)
	}
	return nil
}

// Close flushes and closes the store. Closing twice is an error-free
// no-op.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.wal.Sync(); err != nil {
		s.wal.Close()
		return fmt.Errorf("kvstore: close sync: %w", err)
	}
	return s.wal.Close()
}
