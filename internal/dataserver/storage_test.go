package dataserver

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"

	"github.com/mayflower-dfs/mayflower/internal/nameserver"
	"github.com/mayflower-dfs/mayflower/internal/uuid"
)

func newStorage(t *testing.T) *storage {
	t.Helper()
	st, err := openStorage(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.close)
	return st
}

// into is a readAt sender that copies each chunk range into w.
func into(w io.Writer) func(f *os.File, off, n int64) error {
	return func(f *os.File, off, n int64) error {
		_, err := io.Copy(w, io.NewSectionReader(f, off, n))
		return err
	}
}

func testInfo(t *testing.T, chunkSize int64) nameserver.FileInfo {
	t.Helper()
	return nameserver.FileInfo{
		ID:        uuid.MustNew(),
		Name:      "test-file",
		ChunkSize: chunkSize,
		Replicas:  []nameserver.ReplicaLoc{{ServerID: "ds-0"}},
	}
}

func TestPrepareIdempotent(t *testing.T) {
	st := newStorage(t)
	info := testInfo(t, 100)
	if err := st.prepare(info); err != nil {
		t.Fatal(err)
	}
	if err := st.prepare(info); err != nil {
		t.Fatalf("second prepare: %v", err)
	}
	if _, err := st.get(info.ID); err != nil {
		t.Fatal(err)
	}
}

func TestPrepareValidation(t *testing.T) {
	st := newStorage(t)
	if err := st.prepare(nameserver.FileInfo{ID: uuid.MustNew()}); err == nil {
		t.Error("zero chunk size accepted")
	}
	if err := st.prepare(nameserver.FileInfo{ChunkSize: 10}); err == nil {
		t.Error("zero file id accepted")
	}
}

func TestAppendReadAcrossChunks(t *testing.T) {
	st := newStorage(t)
	info := testInfo(t, 10) // tiny chunks force boundary crossings
	if err := st.prepare(info); err != nil {
		t.Fatal(err)
	}

	payload := []byte("the quick brown fox jumps over the lazy dog") // 43 bytes
	size, err := st.appendAt(info.ID, 0, payload)
	if err != nil {
		t.Fatal(err)
	}
	if size != 43 {
		t.Fatalf("size = %d, want 43", size)
	}

	// Five chunk files must exist: 10+10+10+10+3.
	for chunk := 1; chunk <= 5; chunk++ {
		fi, err := os.Stat(st.chunkPath(info.ID, chunk))
		if err != nil {
			t.Fatalf("chunk %d missing: %v", chunk, err)
		}
		want := int64(10)
		if chunk == 5 {
			want = 3
		}
		if fi.Size() != want {
			t.Errorf("chunk %d size = %d, want %d", chunk, fi.Size(), want)
		}
	}

	// Whole-file read.
	var buf bytes.Buffer
	gotSize, err := st.readAt(info.ID, 0, 43, into(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if gotSize != 43 || !bytes.Equal(buf.Bytes(), payload) {
		t.Errorf("read = %q (size %d)", buf.Bytes(), gotSize)
	}

	// Unaligned range crossing a boundary.
	buf.Reset()
	if _, err := st.readAt(info.ID, 7, 9, into(&buf)); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(payload[7:16]) {
		t.Errorf("range read = %q, want %q", got, payload[7:16])
	}
}

func TestAppendContinuesLastChunk(t *testing.T) {
	st := newStorage(t)
	info := testInfo(t, 10)
	if err := st.prepare(info); err != nil {
		t.Fatal(err)
	}
	if _, err := st.appendAt(info.ID, 0, []byte("1234567")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.appendAt(info.ID, 7, []byte("89abcd")); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := st.readAt(info.ID, 0, 13, into(&buf)); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "123456789abcd" {
		t.Errorf("read = %q", buf.String())
	}
}

func TestAppendOffsetChecks(t *testing.T) {
	st := newStorage(t)
	info := testInfo(t, 100)
	if err := st.prepare(info); err != nil {
		t.Fatal(err)
	}
	if _, err := st.appendAt(info.ID, 0, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	// A gap is rejected.
	if _, err := st.appendAt(info.ID, 10, []byte("x")); !errors.Is(err, ErrOffsetGap) {
		t.Errorf("gap append err = %v", err)
	}
	// A duplicate delivery (fully covered) is a quiet no-op.
	size, err := st.appendAt(info.ID, 0, []byte("hello"))
	if err != nil || size != 5 {
		t.Errorf("duplicate append = %d, %v", size, err)
	}
	var buf bytes.Buffer
	if _, err := st.readAt(info.ID, 0, 5, into(&buf)); err != nil || buf.String() != "hello" {
		t.Errorf("read after duplicate = %q, %v", buf.String(), err)
	}
}

func TestReadValidation(t *testing.T) {
	st := newStorage(t)
	info := testInfo(t, 100)
	if err := st.prepare(info); err != nil {
		t.Fatal(err)
	}
	if _, err := st.appendAt(info.ID, 0, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := st.readAt(info.ID, 0, 6, into(&buf)); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("over-read err = %v", err)
	}
	if _, err := st.readAt(info.ID, -1, 1, into(&buf)); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("negative offset err = %v", err)
	}
	if _, err := st.readAt(uuid.MustNew(), 0, 1, into(&buf)); !errors.Is(err, ErrUnknownFile) {
		t.Errorf("unknown file err = %v", err)
	}
	size, err := st.readAt(info.ID, 5, 0, into(&buf))
	if err != nil || size != 5 {
		t.Errorf("empty read = %d, %v", size, err)
	}
}

func TestDelete(t *testing.T) {
	st := newStorage(t)
	info := testInfo(t, 100)
	if err := st.prepare(info); err != nil {
		t.Fatal(err)
	}
	if _, err := st.appendAt(info.ID, 0, []byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := st.delete(info.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(st.dirOf(info.ID)); !errors.Is(err, os.ErrNotExist) {
		t.Error("file directory survived delete")
	}
	if _, err := st.get(info.ID); !errors.Is(err, ErrUnknownFile) {
		t.Errorf("get after delete err = %v", err)
	}
	if err := st.delete(info.ID); err != nil {
		t.Fatalf("double delete: %v", err)
	}
}

func TestReopenRecoversFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := openStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	info := testInfo(t, 10)
	if err := st.prepare(info); err != nil {
		t.Fatal(err)
	}
	if _, err := st.appendAt(info.ID, 0, bytes.Repeat([]byte("z"), 25)); err != nil {
		t.Fatal(err)
	}

	st2, err := openStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := st2.get(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fs.localSize() != 25 {
		t.Errorf("recovered size = %d, want 25", fs.localSize())
	}
	if fs.info.Name != "test-file" {
		t.Errorf("recovered name = %q", fs.info.Name)
	}
	recs := st2.list()
	if len(recs) != 1 || recs[0].LocalSizeBytes != 25 {
		t.Errorf("list = %+v", recs)
	}

	// A directory with torn metadata is skipped, not fatal.
	tornDir := filepath.Join(dir, uuid.MustNew().String())
	if err := os.MkdirAll(tornDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(tornDir, metaFileName), []byte("{corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	st3, err := openStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st3.list()) != 1 {
		t.Errorf("torn directory not skipped: %d files", len(st3.list()))
	}
}

func TestConcurrentAppendsSerialize(t *testing.T) {
	st := newStorage(t)
	info := testInfo(t, 64)
	if err := st.prepare(info); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const writers = 8
	const perWriter = 20
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Emulate primary behaviour: take the order lock, find the
				// offset, apply.
				fs, err := st.get(info.ID)
				if err != nil {
					t.Error(err)
					return
				}
				fs.appendMu.Lock()
				off := fs.localSize()
				_, err = st.appendAtLocked(fs, off, []byte("0123456789"))
				fs.appendMu.Unlock()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	fs, _ := st.get(info.ID)
	if got, want := fs.localSize(), int64(writers*perWriter*10); got != want {
		t.Fatalf("size = %d, want %d", got, want)
	}
	var buf bytes.Buffer
	if _, err := st.readAt(info.ID, 0, fs.localSize(), into(&buf)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i+10 <= buf.Len(); i += 10 {
		if string(buf.Bytes()[i:i+10]) != "0123456789" {
			t.Fatalf("interleaved append at %d: %q", i, buf.Bytes()[i:i+10])
		}
	}
}

func TestConcurrentReadsDuringAppend(t *testing.T) {
	st := newStorage(t)
	info := testInfo(t, 1024)
	if err := st.prepare(info); err != nil {
		t.Fatal(err)
	}
	if _, err := st.appendAt(info.ID, 0, bytes.Repeat([]byte("a"), 4096)); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		off := int64(4096)
		for {
			select {
			case <-stop:
				return
			default:
			}
			n, err := st.appendAt(info.ID, off, bytes.Repeat([]byte("b"), 100))
			if err != nil {
				t.Error(err)
				return
			}
			off = n
		}
	}()
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		// Reads of immutable early chunks proceed during appends.
		if _, err := st.readAt(info.ID, 0, 1024, into(&buf)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), bytes.Repeat([]byte("a"), 1024)) {
			t.Fatal("early chunk corrupted during appends")
		}
	}
	close(stop)
	wg.Wait()
}

func TestListSnapshot(t *testing.T) {
	st := newStorage(t)
	for i := 0; i < 5; i++ {
		info := testInfo(t, 100)
		info.Name = fmt.Sprintf("f-%d", i)
		if err := st.prepare(info); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(st.list()); got != 5 {
		t.Errorf("list = %d entries, want 5", got)
	}
}

// fdCount counts the process's open descriptors.
func fdCount(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count descriptors: %v", err)
	}
	return len(fds)
}

// prepared prepares a file of chunkSize-byte chunks and appends data.
func prepared(t *testing.T, st *storage, chunkSize int64, data []byte) nameserver.FileInfo {
	t.Helper()
	info := testInfo(t, chunkSize)
	if err := st.prepare(info); err != nil {
		t.Fatal(err)
	}
	if _, err := st.appendAt(info.ID, 0, data); err != nil {
		t.Fatal(err)
	}
	return info
}

// readBack reads a file's first n bytes.
func readBack(t *testing.T, st *storage, id uuid.UUID, n int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := st.readAt(id, 0, n, into(&buf)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func scrubClean(t *testing.T, st *storage) {
	t.Helper()
	if faults, err := st.scrub(); err != nil || len(faults) != 0 {
		t.Fatalf("scrub = %+v, %v; want clean", faults, err)
	}
}

// TestChunkHandles covers the storage's table of open chunks. After every
// case, each sidecar on disk is exactly 4 bytes.
func TestChunkHandles(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, st *storage)
	}{
		{"descriptors stay within two per cached chunk across 200 files", func(t *testing.T, st *storage) {
			base := fdCount(t)
			for i := 0; i < 200; i++ {
				data := bytes.Repeat([]byte{byte(i)}, 40) // 16-byte chunks: each file crosses two boundaries
				info := prepared(t, st, 16, data[:25])
				if _, err := st.appendAt(info.ID, 25, data[25:]); err != nil {
					t.Fatal(err)
				}
				if got := readBack(t, st, info.ID, 40); !bytes.Equal(got, data) {
					t.Fatalf("file %d read back %v", i, got)
				}
				if n := fdCount(t); n > base+2*maxOpenChunks {
					t.Fatalf("%d descriptors open after %d files, %d at the start: more than 2·%d over", n, i+1, base, maxOpenChunks)
				}
			}
		}},
		{"concurrent appends and reads over more files than the cap", func(t *testing.T, st *storage) {
			base := fdCount(t)
			const workers = 8
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var infos []nameserver.FileInfo
					for i := 0; i < 8; i++ { // 64 files in all: eviction runs while others hold handles
						info := testInfo(t, 16)
						if err := st.prepare(info); err != nil {
							t.Error(err)
							return
						}
						infos = append(infos, info)
					}
					for round := int64(0); round < 5; round++ {
						for _, info := range infos {
							if _, err := st.appendAt(info.ID, round*10, []byte("0123456789")); err != nil {
								t.Error(err)
								return
							}
							var buf bytes.Buffer
							if _, err := st.readAt(info.ID, 0, round*10+10, into(&buf)); err != nil || buf.String() != strings.Repeat("0123456789", int(round)+1) {
								t.Errorf("round %d read back %q, %v", round, buf.String(), err)
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			if n := fdCount(t); n > base+2*(maxOpenChunks+workers) { // each worker may have held one past the cap
				t.Errorf("%d descriptors open, %d at the start", n, base)
			}
			scrubClean(t, st)
		}},
		{"a read in flight across a delete gets its own file's bytes or an error", func(t *testing.T, st *storage) {
			base := fdCount(t)
			a := prepared(t, st, 64, bytes.Repeat([]byte("a"), 64))
			b := prepared(t, st, 64, bytes.Repeat([]byte("b"), 60))
			started, proceed, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
			var got []byte
			go func() {
				_, err := st.readAt(a.ID, 0, 64, func(f *os.File, off, n int64) error {
					fd := int(f.Fd()) // what the send loop hands sendfile(2)
					close(started)
					<-proceed
					got = make([]byte, n)
					_, err := syscall.Pread(fd, got, off)
					return err
				})
				done <- err
			}()
			<-started
			if err := st.delete(a.ID); err != nil {
				t.Fatal(err)
			}
			// New chunks open here: a descriptor number the delete freed would be reused.
			if _, err := st.appendAt(b.ID, 60, bytes.Repeat([]byte("b"), 70)); err != nil {
				t.Fatal(err)
			}
			close(proceed)
			if err := <-done; err == nil && !bytes.Equal(got, bytes.Repeat([]byte("a"), 64)) {
				t.Fatalf("a read across the delete returned %q", got)
			}
			st.close()
			if n := fdCount(t); n != base {
				t.Errorf("%d descriptors open after Close, %d at the start", n, base)
			}
		}},
		{"Close returns the descriptor count to its baseline", func(t *testing.T, st *storage) {
			base := fdCount(t)
			var info nameserver.FileInfo
			for i := 0; i < 40; i++ {
				info = prepared(t, st, 16, bytes.Repeat([]byte("c"), 24))
				readBack(t, st, info.ID, 24)
			}
			st.close()
			if n := fdCount(t); n != base {
				t.Errorf("%d descriptors open after Close, %d at the start", n, base)
			}
			if _, err := st.readAt(info.ID, 0, 1, into(io.Discard)); !errors.Is(err, ErrUnknownFile) {
				t.Errorf("read after Close: err = %v, want ErrUnknownFile", err)
			}
		}},
		{"an evicted tail reopens with its checksum", func(t *testing.T, st *storage) {
			a := prepared(t, st, 16, []byte("0123456789"))
			fs, _ := st.get(a.ID)
			for i := 0; i < maxOpenChunks; i++ {
				prepared(t, st, 16, []byte("x"))
			}
			st.hmu.Lock()
			_, open := st.open[chunkKey{fs, 1}]
			st.hmu.Unlock()
			if open {
				t.Fatalf("the tail outlived %d newer chunks", maxOpenChunks)
			}
			if _, err := st.appendAt(a.ID, 10, []byte("abcdefghij")); err != nil {
				t.Fatal(err)
			}
			if got := readBack(t, st, a.ID, 20); string(got) != "0123456789abcdefghij" {
				t.Fatalf("read back %q", got)
			}
			scrubClean(t, st)
		}},
		{"a read opens its chunk read-only and an append reopens it writable", func(t *testing.T, st *storage) {
			a := prepared(t, st, 16, []byte("0123456789"))
			st.close()
			st, err := openStorage(st.root) // restarted: the table starts empty
			if err != nil {
				t.Fatal(err)
			}
			defer st.close()
			fs, _ := st.get(a.ID)
			mode := func() int {
				st.hmu.Lock()
				defer st.hmu.Unlock()
				flags, _, errno := syscall.Syscall(syscall.SYS_FCNTL, st.open[chunkKey{fs, 1}].f.Fd(), syscall.F_GETFL, 0)
				if errno != 0 {
					t.Fatal(errno)
				}
				return int(flags) & syscall.O_ACCMODE
			}
			readBack(t, st, a.ID, 10)
			if m := mode(); m != syscall.O_RDONLY {
				t.Fatalf("a read opened the chunk with access mode %d, want read-only", m)
			}
			if _, err := st.appendAt(a.ID, 10, []byte("abcdef")); err != nil {
				t.Fatal(err)
			}
			if m := mode(); m != syscall.O_RDWR {
				t.Fatalf("the append left the chunk's handle with access mode %d, want read-write", m)
			}
			if got := readBack(t, st, a.ID, 16); string(got) != "0123456789abcdef" {
				t.Fatalf("read back %q", got)
			}
			scrubClean(t, st)
		}},
		{"an append overwrites torn bytes past the recorded size", func(t *testing.T, st *storage) {
			a := prepared(t, st, 16, []byte("hello"))
			f, err := os.OpenFile(st.chunkPath(a.ID, 1), os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte("XX")); err != nil { // a failed write's torn half
				t.Fatal(err)
			}
			f.Close()
			if _, err := st.appendAt(a.ID, 5, []byte("world")); err != nil {
				t.Fatal(err)
			}
			if got := readBack(t, st, a.ID, 10); string(got) != "helloworld" {
				t.Fatalf("read back %q, want %q", got, "helloworld")
			}
			scrubClean(t, st)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := newStorage(t)
			tc.run(t, st)
			sidecars, err := filepath.Glob(filepath.Join(st.root, "*", "*.crc"))
			if err != nil || len(sidecars) == 0 {
				t.Fatalf("no sidecars (%v)", err)
			}
			for _, path := range sidecars {
				if fi, err := os.Stat(path); err != nil || fi.Size() != 4 {
					t.Errorf("sidecar %s: %v, want exactly 4 bytes", path, err)
				}
			}
		})
	}
}

// TestRestartHealsTornTail: bytes that reached a partial last chunk before
// a crash, without their sidecar update, are adopted on restart under a
// recomputed checksum. A flipped byte in a sealed chunk is still flagged,
// also when it is the file's last chunk, and a tail whose sidecar cannot
// be healed is still served.
func TestRestartHealsTornTail(t *testing.T) {
	dir := t.TempDir()
	st, err := openStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("0123456789abcdefghij") // 16-byte chunks: 16 + 4
	torn := prepared(t, st, 16, data)
	sealed := prepared(t, st, 16, data[:16])
	stuck := prepared(t, st, 16, data[:4])
	st.close()
	f, err := os.OpenFile(st.chunkPath(torn.ID, 2), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("torn")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	for _, id := range []uuid.UUID{torn.ID, sealed.ID} {
		chunk, err := os.ReadFile(st.chunkPath(id, 1))
		if err != nil {
			t.Fatal(err)
		}
		chunk[3] ^= 0xff
		if err := os.WriteFile(st.chunkPath(id, 1), chunk, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A directory where stuck's sidecar was: no heal can write it.
	if err := os.Remove(st.crcPath(stuck.ID, 1)); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(st.crcPath(stuck.ID, 1), 0o755); err != nil {
		t.Fatal(err)
	}

	st2, err := openStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.close()
	faults, err := st2.scrub()
	if err != nil {
		t.Fatal(err)
	}
	want := map[uuid.UUID]string{torn.ID: "checksum-mismatch", sealed.ID: "checksum-mismatch", stuck.ID: "missing-sidecar"}
	for _, f := range faults {
		if f.Chunk != 1 || want[f.FileID] != f.Reason {
			t.Errorf("unexpected fault %+v", f)
		}
	}
	if len(faults) != len(want) {
		t.Errorf("faults = %+v, want chunk 1 of each file: %v", faults, want)
	}
	if got := readBack(t, st2, torn.ID, 24); string(got[16:]) != "ghijtorn" {
		t.Errorf("tail read back %q, want %q", got[16:], "ghijtorn")
	}
	if got := readBack(t, st2, stuck.ID, 4); string(got) != "0123" {
		t.Errorf("the unhealed tail read back %q, want %q", got, "0123")
	}
}

// TestMetaRewriteIsAtomic: a reader polling meta.json while updateInfo
// rewrites it 2,000 times always parses a whole FileInfo, and no
// temporary file is left behind.
func TestMetaRewriteIsAtomic(t *testing.T) {
	st := newStorage(t)
	info := testInfo(t, 100)
	if err := st.prepare(info); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(st.dirOf(info.ID), metaFileName)
	stop, errc := make(chan struct{}), make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				errc <- nil
				return
			default:
			}
			body, err := os.ReadFile(path)
			var got nameserver.FileInfo
			if err == nil {
				err = json.Unmarshal(body, &got)
			}
			if err != nil {
				errc <- fmt.Errorf("read %d bytes of meta.json: %w", len(body), err)
				return
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		info.Name = fmt.Sprintf("renamed-%d", i)
		if err := st.updateInfo(info); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if left, _ := filepath.Glob(path + ".tmp*"); len(left) != 0 {
		t.Errorf("temporary files left behind: %v", left)
	}
}
