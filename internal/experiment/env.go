package experiment

import (
	"sync"
	"time"

	"v6lab/internal/dnsmsg"
	"v6lab/internal/netsim"
	"v6lab/internal/world"
)

// Scratch is the recycled per-run mutable infrastructure a study executes
// on: today, the L2 switch with its queue and frame arena. Reusing one
// Scratch across consecutive runs (the six Table 2 experiments, a fleet
// worker's homes) means the switch reaches a steady state where delivering
// a full run's traffic allocates nothing.
//
// A Scratch is single-threaded state: it may be handed from study to study
// but never shared by two concurrent ones.
type Scratch struct {
	net *netsim.Network
}

// NewScratch returns an empty Scratch; the switch is built on first use.
func NewScratch() *Scratch { return &Scratch{} }

// network returns the recycled switch, reset onto the given clock. The
// reset invalidates every frame the previous run's arena handed out —
// callers retain only capture copies and value types, which is the
// Reset contract that makes recycling safe.
func (sc *Scratch) network(clock *netsim.Clock) *netsim.Network {
	if sc.net == nil {
		sc.net = netsim.NewNetwork(clock)
	} else {
		sc.net.Reset(clock)
	}
	return sc.net
}

// EnvPool recycles isolated parallel-run environments — device stacks,
// switch, clock, cloud clone — across studies. Building one environment
// costs ~93 stacks plus a primed switch arena, so a warm pool turns the
// per-worker setup of every subsequent study over the same World into a
// handful of map clears.
//
// Environments are keyed by World identity (pointer equality): a pooled
// environment is only handed to a study whose World is the very object it
// was built from, so stacks, plans, and the cloud registry are guaranteed
// to match. Releasing and acquiring are concurrency-safe; the environments
// themselves are single-threaded.
type EnvPool struct {
	mu   sync.Mutex
	envs []*Study
}

// maxIdleEnvs bounds how many idle environments a pool retains; beyond it,
// released environments are dropped for the GC. Six covers the widest
// useful study fan-out (one per Table 2 config) with room for a second
// world's worth.
const maxIdleEnvs = 12

// NewEnvPool returns an empty environment pool.
func NewEnvPool() *EnvPool { return &EnvPool{} }

// get pops an idle environment built over exactly this world, or nil.
func (p *EnvPool) get(w *world.World) *Study {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(p.envs) - 1; i >= 0; i-- {
		if env := p.envs[i]; env.World == w {
			p.envs = append(p.envs[:i], p.envs[i+1:]...)
			return env
		}
	}
	return nil
}

// put returns an idle environment to the pool.
func (p *EnvPool) put(env *Study) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.envs) < maxIdleEnvs {
		p.envs = append(p.envs, env)
	}
}

// Idle reports how many environments are currently parked in the pool.
func (p *EnvPool) Idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.envs)
}

// acquireEnv returns an isolated environment for one parallel worker:
// a warm one from the study's pool when available, freshly built
// otherwise. The environment is adopted into this study — budget,
// telemetry wiring — but keeps its own stacks, clock, switch, and query
// counters.
func (st *Study) acquireEnv(base time.Time) *Study {
	if st.pool != nil {
		if env := st.pool.get(st.World); env != nil {
			env.MaxFramesPerRun = st.MaxFramesPerRun
			env.Capture = st.Capture
			env.Observe = st.Observe
			env.Telemetry = st.Telemetry
			env.Progress = st.Progress
			env.tm = st.tm
			clear(env.Cloud.Queries)
			return env
		}
	}
	return st.isolatedEnv(base)
}

// releaseEnv parks a worker's environment for reuse by later studies (or
// drops it when the study has no pool).
func (st *Study) releaseEnv(env *Study) {
	if st.pool != nil {
		st.pool.put(env)
	}
}

// beginRun readies a (possibly reused) environment for one experiment:
// rewind the private clock to the common base and seed the DHCPv4
// transaction counters with the prior configs' boot count. Both writes
// are absolute, which is what makes environment reuse invisible — a
// warm environment enters RunExperiment in the same state a fresh one
// would.
func (env *Study) beginRun(base time.Time, prior []Config) {
	env.Clock.Reset(base)
	env.seedDHCP4(prior)
}

// takeQueries returns the environment's accumulated cloud query counters
// and leaves it with fresh ones, so each run's counts merge exactly once.
func (env *Study) takeQueries() map[dnsmsg.Type]int {
	q := env.Cloud.Queries
	env.Cloud.Queries = make(map[dnsmsg.Type]int, len(q))
	return q
}
