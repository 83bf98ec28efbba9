//go:build race

package bench

// raceEnabled reports whether the test binary runs under the race detector,
// whose instrumentation distorts relative throughput.
const raceEnabled = true
