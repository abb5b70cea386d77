package v6lab

import (
	"v6lab/internal/experiment"
	"v6lab/internal/world"
)

// Env is a shared simulation environment: the immutable World — device
// registry, workload plans, and the primed cloud domain registry — built
// once, plus a pool of recycled per-run environments (device stacks,
// switch arenas, clocks, query counters). Labs created with WithEnv share
// both: world construction happens once instead of per lab, and the
// study's workers reuse warm environments instead of rebuilding ~93 stacks per
// study. Output stays byte-identical to a lab without an Env — the pool's
// reset contract re-seeds every piece of cross-run state absolutely.
//
// An Env is safe for concurrent use: the world is immutable after
// construction and the pool is internally locked. A lab borrows the
// Env's world only when it simulates that world: one restricted with
// WithDevices (its population differs) or given a WithAblation (its
// profiles, plans and cloud differ) builds a world of its own instead.
type Env struct {
	world *world.World
	pool  *experiment.EnvPool
}

// NewEnv builds the full-registry World and an empty environment pool.
func NewEnv() *Env {
	return &Env{world: world.Build(nil), pool: experiment.NewEnvPool()}
}

// IdleEnvs reports how many warm run environments are parked in the pool
// — zero before any lab over the Env has run its study, positive after (a warm pool is
// what makes the second lab's setup nearly free).
func (e *Env) IdleEnvs() int { return e.pool.Idle() }

// WithEnv runs the lab over the shared environment: its study adopts the
// Env's World and draws its run environments from the Env's pool.
// Ignored when WithDevices restricts the population or WithAblation
// sets a mitigation (the world would not match).
func WithEnv(env *Env) Option {
	return func(o *options) { o.env = env }
}
