// Package kernelctx exercises the raw-goroutine kernel-call analyzer.
package kernelctx

import "internal/sim"

// Bad touches the event calendar from raw goroutines, racing the kernel.
func Bad(k *sim.Kernel) {
	go func() {
		k.Schedule(0, func() {}) // want `sim\.Kernel\.Schedule called from a raw goroutine`
		k.At(5, func() {})       // want `sim\.Kernel\.At called from a raw goroutine`
		k.Run(10)                // want `sim\.Kernel\.Run called from a raw goroutine`
		k.Step()                 // want `sim\.Kernel\.Step called from a raw goroutine`
	}()
}

// Good stays on the kernel's goroutine: callbacks may schedule freely, and
// reading the clock is not a calendar mutation.
func Good(k *sim.Kernel) {
	k.Schedule(0, func() {
		k.At(10, func() {})
	})
	go func() {
		_ = k.Now()
	}()
	k.Run(100)
}

// Unfollowed: the analyzer is lexical; a named function launched with go
// is not traced into (kept cheap and predictable).
func Unfollowed(k *sim.Kernel) {
	go helper(k)
}

func helper(k *sim.Kernel) { k.Step() }
