package gpu

import "math/rand"

// CounterDelta is the set of hardware performance-counter increments
// attributed to one context during one scheduler slice. Indices [0] and [1]
// are the two texture units / DRAM sub-partitions / L2 slices, matching the
// paper's Table IV counter pairs.
type CounterDelta struct {
	TexQueries     [2]float64 // tex0/1_cache_sector_queries
	FBReadSectors  [2]float64 // fb_subp0/1_read_sectors
	FBWriteSectors [2]float64 // fb_subp0/1_write_sectors
	L2ReadMisses   [2]float64 // l2_subp0/1_read_sector_misses
	L2WriteMisses  [2]float64 // l2_subp0/1_write_sector_misses
}

// Scale multiplies every counter by f (used when splitting a slice across
// sampling-window boundaries).
func (d *CounterDelta) Scale(f float64) {
	for i := 0; i < 2; i++ {
		d.TexQueries[i] *= f
		d.FBReadSectors[i] *= f
		d.FBWriteSectors[i] *= f
		d.L2ReadMisses[i] *= f
		d.L2WriteMisses[i] *= f
	}
}

// splitAcross divides total between the two units around 50/50 with a random
// imbalance of ±imb, modelling the address-hash distribution across
// sub-partitions.
func splitAcross(total, imb float64, rng *rand.Rand) [2]float64 {
	frac := 0.5
	if imb > 0 {
		frac += imb * (rng.Float64()*2 - 1)
	}
	return [2]float64{total * frac, total * (1 - frac)}
}

// noisy applies multiplicative measurement noise of relative magnitude frac.
func noisy(v, frac float64, rng *rand.Rand) float64 {
	if frac <= 0 || v == 0 {
		return v
	}
	out := v * (1 + frac*rng.NormFloat64())
	if out < 0 {
		out = 0
	}
	return out
}
