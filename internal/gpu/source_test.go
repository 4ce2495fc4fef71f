package gpu

// QueueSource feeds a fixed list of kernels in order, spacing them with the
// per-kernel delay (host-side preparation time before each launch). It is
// the tests' victim: a finite, hand-built kernel stream.
type QueueSource struct {
	items []queued
	next  int
}

type queued struct {
	kernel KernelProfile
	delay  Nanos
}

// Enqueue appends a kernel to the queue. delay is the host delay between the
// previous kernel becoming ready and this one launching.
func (q *QueueSource) Enqueue(k KernelProfile, delay Nanos) {
	q.items = append(q.items, queued{kernel: k, delay: delay})
}

// Next implements Source.
func (q *QueueSource) Next(now Nanos) (KernelProfile, Nanos, bool) {
	if q.next >= len(q.items) {
		return KernelProfile{}, 0, false
	}
	item := q.items[q.next]
	q.next++
	return item.kernel, now + item.delay, true
}

// repeated queues n zero-delay launches of k: the kernels a RepeatSource
// hands out, at the same times, stopping after n.
func repeated(k KernelProfile, n int) *QueueSource {
	q := &QueueSource{}
	for i := 0; i < n; i++ {
		q.Enqueue(k, 0)
	}
	return q
}

// Add accumulates o into d.
func (d *CounterDelta) Add(o CounterDelta) {
	for i := 0; i < 2; i++ {
		d.TexQueries[i] += o.TexQueries[i]
		d.FBReadSectors[i] += o.FBReadSectors[i]
		d.FBWriteSectors[i] += o.FBWriteSectors[i]
		d.L2ReadMisses[i] += o.L2ReadMisses[i]
		d.L2WriteMisses[i] += o.L2WriteMisses[i]
	}
}

// Total returns the sum over both units of every counter family.
func (d CounterDelta) Total() (tex, fbRead, fbWrite, l2Read, l2Write float64) {
	return d.TexQueries[0] + d.TexQueries[1],
		d.FBReadSectors[0] + d.FBReadSectors[1],
		d.FBWriteSectors[0] + d.FBWriteSectors[1],
		d.L2ReadMisses[0] + d.L2ReadMisses[1],
		d.L2WriteMisses[0] + d.L2WriteMisses[1]
}
