//go:build !amd64

package sim

import "unsafe"

// prefetch3 is a no-op where the engine has no prefetch instruction to issue.
func prefetch3(a, b, c unsafe.Pointer) {}
