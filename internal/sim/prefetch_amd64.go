package sim

import "unsafe"

// prefetch3 issues a PREFETCHT0 for each of the three addresses. Prefetches
// never fault and retire at once, so the call does not wait for the loads.
//
//go:noescape
func prefetch3(a, b, c unsafe.Pointer)
