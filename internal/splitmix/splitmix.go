// Package splitmix is the simulator's one pseudo-random generator:
// splitmix64, one uint64 of state, no floating point and no math/rand
// version skew, so a seed names the same sequence on every platform. Fault
// verdicts, fleet home specs, timeline schedules, the adversary's probe
// order and the load generator all draw from it; each caller seeds its own
// Rand, so no state is shared.
package splitmix

// Rand is a splitmix64 sequence. The zero value is the sequence for seed 0.
type Rand struct{ state uint64 }

// New returns the sequence for seed.
func New(seed uint64) Rand { return Rand{state: seed} }

// Uint64 returns the next value of the sequence.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns the next value reduced into [0, n). For n <= 0 it returns
// 0 without drawing.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Uint64() % uint64(n))
}
