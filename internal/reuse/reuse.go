// Package reuse holds the one policy that lets storage a run leaves
// behind serve the next run: reuse an array only when it fits, and clear
// it exactly as a fresh allocation would leave it.
package reuse

// Slice returns n zeroed elements: s's own storage when it holds n, a
// fresh allocation otherwise. Either way the result reads as
// make([]T, n).
func Slice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
