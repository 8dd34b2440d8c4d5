package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
)

func openTemp(t *testing.T) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s, dir
}

func TestPutGetDelete(t *testing.T) {
	s, _ := openTemp(t)

	if _, ok, err := s.Get([]byte("missing")); err != nil || ok {
		t.Fatalf("Get(missing) = ok=%v err=%v", ok, err)
	}
	if err := s.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get([]byte("a"))
	if err != nil || !ok || string(v) != "1" {
		t.Fatalf("Get(a) = %q ok=%v err=%v", v, ok, err)
	}
	if err := s.Put([]byte("a"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	v, _, _ = s.Get([]byte("a"))
	if string(v) != "2" {
		t.Fatalf("overwrite failed: %q", v)
	}
	if err := s.Delete([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get([]byte("a")); ok {
		t.Fatal("deleted key still present")
	}
	if err := s.Delete([]byte("a")); err != nil {
		t.Fatalf("double delete: %v", err)
	}
	if n, _ := s.Len(); n != 0 {
		t.Fatalf("Len = %d, want 0", n)
	}
}

func TestValidation(t *testing.T) {
	s, _ := openTemp(t)
	if err := s.Put(nil, []byte("v")); err == nil {
		t.Error("empty key accepted for Put")
	}
	if err := s.Delete(nil); err == nil {
		t.Error("empty key accepted for Delete")
	}
	if err := s.Put(make([]byte, maxKeyLen+1), nil); err == nil {
		t.Error("oversized key accepted")
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s, _ := openTemp(t)
	if err := s.Put([]byte("k"), []byte("value")); err != nil {
		t.Fatal(err)
	}
	v, _, _ := s.Get([]byte("k"))
	v[0] = 'X'
	v2, _, _ := s.Get([]byte("k"))
	if string(v2) != "value" {
		t.Fatalf("internal state mutated through returned slice: %q", v2)
	}
	// And Put copies its input.
	in := []byte("orig")
	if err := s.Put([]byte("k2"), in); err != nil {
		t.Fatal(err)
	}
	in[0] = 'X'
	v3, _, _ := s.Get([]byte("k2"))
	if string(v3) != "orig" {
		t.Fatalf("Put did not copy input: %q", v3)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%03d", i)
		if err := s.Put([]byte(key), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete([]byte("key-050")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n, _ := s2.Len(); n != 99 {
		t.Fatalf("Len after reopen = %d, want 99", n)
	}
	v, ok, _ := s2.Get([]byte("key-042"))
	if !ok || string(v) != "val-42" {
		t.Fatalf("Get(key-042) = %q ok=%v", v, ok)
	}
	if _, ok, _ := s2.Get([]byte("key-050")); ok {
		t.Fatal("deleted key resurrected after reopen")
	}
}

func TestCompactAndReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete([]byte("k10")); err != nil {
		t.Fatal(err)
	}
	walSize := func() int64 {
		fi, err := os.Stat(filepath.Join(dir, walName))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	if n := walSize(); n == 0 {
		t.Fatal("WAL empty before compact")
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if n := walSize(); n != 0 {
		t.Fatalf("WAL holds %d bytes after compact, want 0", n)
	}
	// Post-compaction writes land in the fresh WAL.
	if err := s.Put([]byte("after"), []byte("compact")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n, _ := s2.Len(); n != 50 {
		t.Fatalf("Len = %d, want 50", n)
	}
	if _, ok, _ := s2.Get([]byte("after")); !ok {
		t.Fatal("post-compaction write lost")
	}
	if _, ok, _ := s2.Get([]byte("k10")); ok {
		t.Fatal("compaction resurrected deleted key")
	}
}

func TestTornWALRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%d", i)), bytes.Repeat([]byte("x"), 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: chop bytes off the WAL tail.
	walPath := filepath.Join(dir, "WAL")
	info, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, info.Size()-37); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after torn WAL: %v", err)
	}
	defer s2.Close()
	if n, _ := s2.Len(); n != 9 {
		t.Fatalf("Len = %d, want 9 (one torn record dropped)", n)
	}
	// The store keeps working after recovery.
	if err := s2.Put([]byte("new"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if _, ok, _ := s3.Get([]byte("new")); !ok {
		t.Fatal("write after torn-WAL recovery lost")
	}
}

func TestCorruptWALChecksum(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("aaa"), []byte("111")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("bbb"), []byte("222")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	walPath := filepath.Join(dir, "WAL")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff // flip a bit in the second record's checksum
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok, _ := s2.Get([]byte("aaa")); !ok {
		t.Fatal("first (intact) record lost")
	}
	if _, ok, _ := s2.Get([]byte("bbb")); ok {
		t.Fatal("corrupt record replayed")
	}
}

func TestRangePrefix(t *testing.T) {
	s, _ := openTemp(t)
	keys := []string{"files/a", "files/b", "files/c", "servers/x", "servers/y"}
	for _, k := range keys {
		if err := s.Put([]byte(k), []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	err := s.Range([]byte("files/"), func(k, v []byte) bool {
		got = append(got, string(k))
		if string(v) != "v-"+string(k) {
			t.Errorf("value mismatch for %s: %q", k, v)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"files/a", "files/b", "files/c"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v (sorted)", got, want)
		}
	}

	// Early termination.
	count := 0
	if err := s.Range(nil, func(k, v []byte) bool { count++; return count < 2 }); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("Range visited %d keys after early stop, want 2", count)
	}
}

func TestClosedStoreErrors(t *testing.T) {
	s, _ := openTemp(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := s.Put([]byte("k"), nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Put after close = %v", err)
	}
	if _, _, err := s.Get([]byte("k")); !errors.Is(err, ErrClosed) {
		t.Errorf("Get after close = %v", err)
	}
	if err := s.Delete([]byte("k")); !errors.Is(err, ErrClosed) {
		t.Errorf("Delete after close = %v", err)
	}
	if err := s.Compact(); !errors.Is(err, ErrClosed) {
		t.Errorf("Compact after close = %v", err)
	}
	if err := s.Range(nil, func(k, v []byte) bool { return true }); !errors.Is(err, ErrClosed) {
		t.Errorf("Range after close = %v", err)
	}
	if _, err := s.Len(); !errors.Is(err, ErrClosed) {
		t.Errorf("Len after close = %v", err)
	}
}

func TestSyncWritesMode(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SyncWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 10; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := s.Len(); n != 10 {
		t.Fatalf("Len = %d", n)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s, _ := openTemp(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := []byte(fmt.Sprintf("g%d-k%d", g, i))
				if err := s.Put(key, []byte("v")); err != nil {
					t.Error(err)
					return
				}
				if _, ok, err := s.Get(key); err != nil || !ok {
					t.Errorf("Get(%s) ok=%v err=%v", key, ok, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n, _ := s.Len(); n != 800 {
		t.Fatalf("Len = %d, want 800", n)
	}
}

// TestRandomOpsMatchModel property-checks the store against a plain map
// through random operations, compactions, and reopens.
func TestRandomOpsMatchModel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		s, err := Open(dir, Options{})
		if err != nil {
			t.Log(err)
			return false
		}
		model := make(map[string]string)
		for i := 0; i < 150; i++ {
			key := fmt.Sprintf("k%d", r.Intn(30))
			switch r.Intn(10) {
			case 0, 1:
				if err := s.Delete([]byte(key)); err != nil {
					t.Log(err)
					return false
				}
				delete(model, key)
			case 2:
				if err := s.Compact(); err != nil {
					t.Log(err)
					return false
				}
			case 3:
				if err := s.Close(); err != nil {
					t.Log(err)
					return false
				}
				if s, err = Open(dir, Options{}); err != nil {
					t.Log(err)
					return false
				}
			default:
				val := fmt.Sprintf("v%d", r.Int())
				if err := s.Put([]byte(key), []byte(val)); err != nil {
					t.Log(err)
					return false
				}
				model[key] = val
			}
		}
		defer s.Close()
		if n, _ := s.Len(); n != len(model) {
			t.Logf("Len = %d, model %d", n, len(model))
			return false
		}
		for k, v := range model {
			got, ok, err := s.Get([]byte(k))
			if err != nil || !ok || string(got) != v {
				t.Logf("Get(%s) = %q ok=%v err=%v, want %q", k, got, ok, err, v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Error(err)
	}
}
