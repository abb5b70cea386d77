package experiment

import (
	"context"
	"fmt"
	"time"

	"v6lab/internal/device"
	"v6lab/internal/dnsmsg"
	"v6lab/internal/pool"
)

// The grid engine: the one path every Table 2 grid runs on.
//
// The six Table 2 experiments are independent: each one builds its own
// switch and router, reboots every device stack, and the capture it
// produces depends only on (profiles, plans, config) and two pieces of
// state that the engine sets before each run:
//
//   - the clock: experiment i starts where experiment i-1 left off, so
//     pcap timestamps are cumulative. Each environment runs on a private
//     clock rewound to a common base; afterwards the merge rebases
//     experiment i's record times by the summed elapsed time of
//     experiments 0..i-1. time.Time.Add is exact, so the rebased
//     timestamps are the same for every worker count.
//   - the DHCPv4 transaction counter: each run's stacks are seeded with
//     the number of v4-enabled configs before it (beginRun), whatever
//     the environment ran before. Fault-driven retries advance the
//     counter within a run, never across runs.
//
// The cloud's domain registry is immutable while experiments run; its
// only run-time mutation is the per-type query diagnostic counter, so
// each environment counts into its own map, merged back (in config
// order) after the pool drains.
//
// Merging in config order makes the Results slice — and therefore
// FullReport and all six pcaps — byte-identical for any worker count.

// runConnectivity executes the Table 2 grid on a pool of
// max(Workers, 1) isolated environments and merges the outcomes in
// config order.
func (st *Study) runConnectivity(ctx context.Context) error {
	start := st.Clock.Now()
	type outcome struct {
		res     *RunResult
		queries map[dnsmsg.Type]int
		elapsed time.Duration
	}
	outcomes := make([]outcome, len(Configs))
	// Run starts exactly min(max(workers, 1), len(Configs)) workers, so
	// every slot holds an environment once it returns.
	envs := make([]*Study, min(max(st.opts.Workers, 1), len(Configs)))
	err := pool.Run(ctx, len(Configs), st.opts.Workers, func(w int) func(int) error {
		// One environment per worker, reused across its jobs (and — via
		// the pool — across studies). beginRun's absolute clock and XID
		// seeding is what makes the reuse byte-invisible.
		env := st.acquireEnv(w, start)
		envs[w] = env
		return func(i int) error {
			env.beginRun(start, Configs[:i])
			res, err := env.RunExperiment(Configs[i])
			if err != nil {
				return fmt.Errorf("experiment %s: %w", Configs[i].ID, err)
			}
			outcomes[i] = outcome{res: res, queries: env.takeQueries(), elapsed: env.Clock.Now().Sub(start)}
			return nil
		}
	})
	for _, env := range envs {
		st.releaseEnv(env)
	}
	// A cancelled or failed pool leaves the study with no partial results
	// appended.
	if err != nil {
		return err
	}
	var offset time.Duration
	for i := range Configs {
		out := outcomes[i]
		// Rebase this capture from the common base onto the cumulative
		// timeline: everything experiments 0..i-1 consumed comes first.
		// Streaming runs have nothing to rebase — analysis never reads
		// record times, only pcap artifacts do, and those need a capture.
		if c := out.res.Capture; c != nil {
			recs := c.Records
			for j := range recs {
				recs[j].Time = recs[j].Time.Add(offset)
			}
		}
		offset += out.elapsed
		st.Results = append(st.Results, out.res)
		for t, n := range out.queries {
			st.Cloud.Queries[t] += n
		}
	}
	// Leave the study's clock and stacks past all six runs: the port scan
	// draws its timestamps and next DHCPv4 XID from them.
	st.Clock.Reset(start.Add(offset))
	st.seedDHCP4(Configs)
	return nil
}

// isolatedEnv builds a study sharing this one's immutable World
// (profiles, plans, domain registry) but with private stacks, clock,
// scratch, and query counters, so one experiment can run on it
// concurrently with others.
func (st *Study) isolatedEnv(base time.Time) *Study {
	env := NewStudyWith(StudyOptions{World: st.World, Start: base})
	// The environments adopt the parent's settings and share its
	// instruments: counter folds are atomic additions (order-independent),
	// and cloud-query folding stays with the parent, which merges the
	// environments' counters in config order before its single fold.
	env.opts, env.tm = st.opts, st.tm
	return env
}

// seedDHCP4 advances every stack's DHCPv4 transaction counter past the
// given configs, as if their Boots had already happened.
func (st *Study) seedDHCP4(prior []Config) {
	n := 0
	for _, cfg := range prior {
		if cfg.Mode != device.ModeV6Only {
			n++
		}
	}
	for _, s := range st.Stacks {
		s.SeedDHCP4Transactions(n)
	}
}
