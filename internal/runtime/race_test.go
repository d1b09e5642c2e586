//go:build race

package runtime

// raceEnabled shortens soak-style tests: the race detector slows the
// executor an order of magnitude.
const raceEnabled = true
