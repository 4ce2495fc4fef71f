//go:build race

package lstm

// raceEnabled reports whether this build runs under the race detector, whose
// shadow-memory bookkeeping inflates allocation counts; the allocation
// ceilings skip themselves there.
const raceEnabled = true
