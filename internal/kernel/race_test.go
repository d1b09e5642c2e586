//go:build race

package kernel

// raceEnabled skips allocation gates: sync.Pool drops a quarter of its
// Puts under the race detector, so the arena itself allocates there.
const raceEnabled = true
