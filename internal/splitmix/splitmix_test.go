package splitmix

import "testing"

// Intn is the sequence reduced modulo n, and n <= 0 returns 0 without
// drawing. (The sequence itself is pinned by the faults package test.)
func TestIntn(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Intn(1000), int(b.Uint64()%1000); got != want {
			t.Fatalf("draw %d: Intn(1000) = %d, want %d", i, got, want)
		}
	}
	r := New(7)
	before := r
	for _, n := range []int{0, -3} {
		if got := r.Intn(n); got != 0 || r != before {
			t.Errorf("Intn(%d) = %d and advanced the sequence; want 0 and no draw", n, got)
		}
	}
}
