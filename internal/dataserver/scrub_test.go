package dataserver

import (
	"bytes"
	"context"
	"os"
	"testing"
)

func TestScrubCleanStore(t *testing.T) {
	st := newStorage(t)
	info := testInfo(t, 16)
	if err := st.prepare(info); err != nil {
		t.Fatal(err)
	}
	// Multiple appends across chunk boundaries keep sidecars current.
	data := bytes.Repeat([]byte("integrity"), 10) // 90 bytes over 6 chunks
	if _, err := st.appendAt(info.ID, 0, data[:40]); err != nil {
		t.Fatal(err)
	}
	if _, err := st.appendAt(info.ID, 40, data[40:]); err != nil {
		t.Fatal(err)
	}
	faults, err := st.scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(faults) != 0 {
		t.Fatalf("clean store reported faults: %+v", faults)
	}
}

func TestScrubDetectsBitRot(t *testing.T) {
	st := newStorage(t)
	info := testInfo(t, 16)
	if err := st.prepare(info); err != nil {
		t.Fatal(err)
	}
	if _, err := st.appendAt(info.ID, 0, bytes.Repeat([]byte("x"), 50)); err != nil {
		t.Fatal(err)
	}

	// Flip a byte in the middle of chunk 2 behind the server's back.
	path := st.chunkPath(info.ID, 2)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[5] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	faults, err := st.scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(faults) != 1 {
		t.Fatalf("faults = %+v, want exactly one", faults)
	}
	if faults[0].FileID != info.ID || faults[0].Chunk != 2 || faults[0].Reason != "checksum-mismatch" {
		t.Errorf("fault = %+v", faults[0])
	}
}

func TestScrubDetectsMissingSidecar(t *testing.T) {
	st := newStorage(t)
	info := testInfo(t, 100)
	if err := st.prepare(info); err != nil {
		t.Fatal(err)
	}
	if _, err := st.appendAt(info.ID, 0, []byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(st.crcPath(info.ID, 1)); err != nil {
		t.Fatal(err)
	}
	faults, err := st.scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(faults) != 1 || faults[0].Reason != "missing-sidecar" {
		t.Fatalf("faults = %+v", faults)
	}
}

func TestScrubSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := openStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	info := testInfo(t, 32)
	if err := st.prepare(info); err != nil {
		t.Fatal(err)
	}
	if _, err := st.appendAt(info.ID, 0, bytes.Repeat([]byte("ab"), 40)); err != nil {
		t.Fatal(err)
	}
	// Checksums remain valid across a restart, including for continued
	// appends into a partially filled chunk.
	st2, err := openStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st2.appendAt(info.ID, 80, []byte("tail")); err != nil {
		t.Fatal(err)
	}
	faults, err := st2.scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(faults) != 0 {
		t.Fatalf("faults after reopen = %+v", faults)
	}
}

func TestScrubRPC(t *testing.T) {
	c := startCluster(t, 1, 16)
	if err := appendVia(c.ctl[0], AppendArgs{FileID: c.info.ID, Data: bytes.Repeat([]byte("z"), 64)}, &AppendReply{}); err != nil {
		t.Fatal(err)
	}
	var faults []ChunkFault
	if err := c.ctl[0].Call(context.Background(), string(MethodScrub), struct{}{}, &faults); err != nil {
		t.Fatal(err)
	}
	if len(faults) != 0 {
		t.Fatalf("faults = %+v", faults)
	}

	// Corrupt a chunk on disk; the RPC reports it.
	path := c.servers[0].store.chunkPath(c.info.ID, 1)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 0x55
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.ctl[0].Call(context.Background(), string(MethodScrub), struct{}{}, &faults); err != nil {
		t.Fatal(err)
	}
	if len(faults) != 1 || faults[0].Chunk != 1 {
		t.Fatalf("faults = %+v", faults)
	}
}
