package dataserver

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
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
				_, err = st.appendAtLocked(fs, info.ID, off, []byte("0123456789"))
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
