package reuse

import "testing"

// TestSlice requires a reused slice to share s's storage and read as
// zeroed, and a slice that does not fit to be allocated anew.
func TestSlice(t *testing.T) {
	s := []int{1, 2, 3, 4}
	got := Slice(s[:1], 3)
	if len(got) != 3 || &got[0] != &s[0] {
		t.Fatalf("Slice reallocated storage that fits: len %d", len(got))
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("element %d is %d after reuse, want 0", i, v)
		}
	}
	if s[3] != 4 {
		t.Fatalf("Slice cleared past n: s[3] = %d", s[3])
	}
	if grown := Slice(s, 5); len(grown) != 5 || &grown[0] == &s[0] {
		t.Fatalf("Slice did not allocate for n above capacity")
	}
	if allocs := testing.AllocsPerRun(10, func() { s = Slice(s, 4) }); allocs != 0 {
		t.Fatalf("reusing a slice that fits makes %v allocations", allocs)
	}
}
