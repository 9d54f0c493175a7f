package sim

import "unsafe"

// prefetch asks the host CPU to start loading the engine state that an
// access to line will read: the line's directory entry, the thread's L2 slot
// and its chip's LLC slot. It is a hint, issued lookahead ops before the
// access: it reads no state the simulation observes and writes none, so
// every sample is the same with or without it. The directory is probed with
// lookup, which never materializes a page; a line whose page does not exist
// yet has no entry to fetch, and its L2 slot stands in for it.
func (e *Engine) prefetch(t *threadState, line uint64) {
	l2 := unsafe.Pointer(&t.l2.ents[t.l2.slot(line)])
	llc := unsafe.Pointer(&t.llc.ents[t.llc.slot(line)])
	de := l2
	if d := e.dir.lookup(line); d != nil {
		de = unsafe.Pointer(d)
	}
	prefetch3(de, l2, llc)
}
