//go:build !race

package ingest

// raceEnabled reports whether the race detector is compiled in; allocation
// assertions are skipped under it because instrumentation changes counts.
const raceEnabled = false
