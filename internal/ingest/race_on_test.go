//go:build race

package ingest

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
