//go:build race

package wire

// raceEnabled: under the race detector sync.Pool drops a quarter of what
// it is handed, so recycling cannot be measured.
const raceEnabled = true
