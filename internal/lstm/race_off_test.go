//go:build !race

package lstm

const raceEnabled = false
