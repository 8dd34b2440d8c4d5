package e2e

import "encoding/binary"

// splitmix64 is the SplitMix64 finaliser: a cheap bijective mixer, used
// both to derive independent seeds from the run seed and to generate
// file contents.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// deriveSeed gives each consumer of randomness (placement, offsets,
// arrival trace, ...) its own stream, so adding a draw to one never
// shifts another.
func deriveSeed(seed int64, purpose uint64) int64 {
	// Mix, offset, mix again — not an xor of two mixes, which would give
	// (seed, purpose) and (purpose, seed) the same stream.
	return int64(splitmix64(splitmix64(uint64(seed))+purpose) >> 1)
}

// fillPattern writes the bytes a file keyed by key holds at
// [off, off+len(dst)). Content is a pure function of (key, offset):
// any read can be checked without keeping the file, and an append's
// payload is simply the pattern at the file's current size.
func fillPattern(dst []byte, key uint64, off int64) {
	var word [8]byte
	for i := 0; i < len(dst); {
		pos := off + int64(i)
		binary.LittleEndian.PutUint64(word[:], splitmix64(key+uint64(pos>>3)))
		i += copy(dst[i:], word[pos&7:])
	}
}
