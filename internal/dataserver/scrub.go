package dataserver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"

	"github.com/mayflower-dfs/mayflower/internal/uuid"
)

// Chunk checksums: every chunk file has a sidecar "<n>.crc" holding the
// CRC-32 (IEEE) of its contents, extended in memory on append by the
// open tail (writeTail) and stored with one 4-byte positional write.
// Scrub recomputes every chunk's checksum and reports mismatches — the
// background integrity verification a production chunk server performs
// (HDFS block scanner equivalent), guarding the immutable chunks that
// Mayflower's append-only design otherwise never re-validates.

func (st *storage) crcPath(id uuid.UUID, chunk int) string {
	return st.chunkPath(id, chunk) + ".crc"
}

// loadChunkCRC reads a chunk's sidecar checksum; ok is false when the
// sidecar does not exist (a pre-checksum chunk or torn create).
func (st *storage) loadChunkCRC(id uuid.UUID, chunk int) (uint32, bool, error) {
	raw, err := os.ReadFile(st.crcPath(id, chunk))
	if errors.Is(err, os.ErrNotExist) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	if len(raw) != 4 {
		return 0, false, fmt.Errorf("dataserver: malformed crc sidecar for chunk %d", chunk)
	}
	return binary.BigEndian.Uint32(raw), true, nil
}

// writeCRC stores crc in an open sidecar with one positional write: a
// sidecar is always exactly 4 bytes, so it is never truncated.
func writeCRC(sidecar *os.File, crc uint32) error {
	var buf [4]byte
	binary.BigEndian.PutUint32(buf[:], crc)
	_, err := sidecar.WriteAt(buf[:], 0)
	return err
}

// chunkCRC computes the CRC-32 of f's first n bytes.
func chunkCRC(f *os.File, n int64) (uint32, error) {
	sum := crc32.NewIEEE()
	_, err := io.CopyN(sum, io.NewSectionReader(f, 0, n), n)
	return sum.Sum32(), err
}

// fileCRC computes the CRC-32 of the whole file at path.
func fileCRC(path string) (uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sum := crc32.NewIEEE()
	_, err = io.Copy(sum, f)
	return sum.Sum32(), err
}

// healTail stores a partial last chunk's checksum if its sidecar
// disagrees: a crash between a chunk write and its sidecar write leaves
// healthy bytes under a stale sidecar. Restarts run it, so they also
// adopt any corruption of a partial last chunk.
func (st *storage) healTail(id uuid.UUID, chunk int) error {
	crc, err := fileCRC(st.chunkPath(id, chunk))
	if want, ok, _ := st.loadChunkCRC(id, chunk); err != nil || ok && crc == want {
		return err
	}
	sum, err := os.OpenFile(st.crcPath(id, chunk), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	return errors.Join(writeCRC(sum, crc), sum.Close())
}

// ChunkFault describes one integrity problem found by Scrub.
type ChunkFault struct {
	FileID uuid.UUID `json:"fileId"`
	Chunk  int       `json:"chunk"`
	// Reason is "checksum-mismatch", "missing-sidecar" or
	// "unreadable".
	Reason string `json:"reason"`
}

// scrub verifies every chunk of every stored file against its sidecar
// checksum and returns the faults found, sorted by file then chunk.
func (st *storage) scrub() ([]ChunkFault, error) {
	st.mu.Lock()
	ids := make([]uuid.UUID, 0, len(st.files))
	for id := range st.files {
		ids = append(ids, id)
	}
	st.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i].String() < ids[j].String() })

	var faults []ChunkFault
	for _, id := range ids {
		for chunk := 1; ; chunk++ {
			crc, err := fileCRC(st.chunkPath(id, chunk))
			if errors.Is(err, os.ErrNotExist) {
				break
			}
			if err != nil {
				faults = append(faults, ChunkFault{FileID: id, Chunk: chunk, Reason: "unreadable"})
				continue
			}
			want, ok, err := st.loadChunkCRC(id, chunk)
			if err != nil || !ok {
				faults = append(faults, ChunkFault{FileID: id, Chunk: chunk, Reason: "missing-sidecar"})
				continue
			}
			if crc != want {
				faults = append(faults, ChunkFault{FileID: id, Chunk: chunk, Reason: "checksum-mismatch"})
			}
		}
	}
	return faults, nil
}
