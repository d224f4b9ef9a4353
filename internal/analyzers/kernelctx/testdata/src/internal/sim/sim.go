// Package sim is a fixture mirroring mobicache/internal/sim's kernel API:
// the kernelctx analyzer matches methods of Kernel from any package path
// ending in internal/sim.
package sim

// Time is simulated time in seconds.
type Time = float64

// Kernel is the simulation executive.
type Kernel struct{}

// Schedule queues fn to run delay seconds from now.
func (k *Kernel) Schedule(delay Time, fn func()) {}

// At queues fn at absolute time t.
func (k *Kernel) At(t Time, fn func()) {}

// Run fires events until the calendar empties.
func (k *Kernel) Run(until Time) {}

// Step fires the next event.
func (k *Kernel) Step() bool { return false }

// Now reports the current simulated time.
func (k *Kernel) Now() Time { return 0 }
