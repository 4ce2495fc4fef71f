//go:build race

package gbdt

// raceEnabled reports whether this build runs under the race detector, whose
// instrumentation can change allocation counts; the allocation ceilings skip
// themselves there.
const raceEnabled = true
