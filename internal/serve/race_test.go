//go:build race

package serve

// raceEnabled skips allocation bounds: sync.Pool drops a quarter of its
// Puts under the race detector, so the pooled lists, buffers and timers
// allocate there.
const raceEnabled = true
