package gpu

// RepeatSource relaunches the same kernel forever. This is how the spy keeps
// its probe and slow-down kernels resident on the device.
type RepeatSource struct {
	Kernel KernelProfile

	launched int
}

// Next implements Source.
func (r *RepeatSource) Next(now Nanos) (KernelProfile, Nanos, bool) {
	r.launched++
	return r.Kernel, now, true
}

// Launched returns how many times the kernel has been handed to the engine.
func (r *RepeatSource) Launched() int { return r.launched }
