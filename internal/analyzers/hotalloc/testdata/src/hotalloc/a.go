// Package hotalloc is the annotation-driven fixture: functions marked
// //mobicache:hot must reject allocating constructs; unmarked ones are free.
package hotalloc

import "fmt"

type item struct{ id int }

type ring struct {
	buf  []item
	free []*item
}

// hot: called once per simulated event.
//
//mobicache:hot
func (r *ring) push(v item) {
	r.buf = append(r.buf, v) // want `append may grow its backing array`
}

//mobicache:hot
func (r *ring) pushAllowed(v item) {
	//lint:allow hotalloc amortized: capacity is retained across resets
	r.buf = append(r.buf, v)
}

//mobicache:hot
func grab() *item {
	return new(item) // want `new allocates`
}

//mobicache:hot
func table(n int) []item {
	return make([]item, n) // want `make allocates`
}

//mobicache:hot
func literal() item {
	return item{id: 1} // want `composite literal may heap-allocate`
}

//mobicache:hot
func closure(n int) func() int {
	return func() int { return n } // want `closure creation allocates`
}

//mobicache:hot
func convert(b []byte) string {
	return string(b) // want `conversion copies its data`
}

//mobicache:hot
func convertBack(s string) []byte {
	return []byte(s) // want `conversion copies its data`
}

//mobicache:hot
func boxed(v item) {
	sink(v) // want `non-pointer value boxed into interface parameter`
}

//mobicache:hot
func boxedVariadic(v item) {
	fmt.Sprint(v) // want `non-pointer value boxed into interface parameter`
}

//mobicache:hot
func pointerNotBoxed(v *item) {
	sink(v) // pointers share the interface word: no allocation
}

//mobicache:hot
func coldPanic(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("negative delay %v", d)) // panic path is cold: exempt
	}
}

//mobicache:hot
func reuse(r *ring) *item {
	if n := len(r.free); n > 0 {
		v := r.free[n-1]
		r.free = r.free[:n-1] // reslicing allocates nothing
		return v
	}
	return nil
}

// not annotated: allocations are fine outside hot paths.
func coldConstructor(n int) []item {
	out := make([]item, 0, n)
	out = append(out, item{id: n})
	return out
}

// A longer directive must not read as the marker.
//
//mobicache:hotter
func notHot() []item {
	return make([]item, 4)
}

// The retired marker, and the form gofmt rewrites it to, mark nothing.
//
// hot path: formerly a marker.
//hot
func retiredMarker() []item {
	return make([]item, 4)
}

// Free text may follow the directive.
//
//mobicache:hot once per event
func hotWithReason(n int) []item {
	return make([]item, n) // want `make allocates`
}

func sink(v any) { _ = v }
