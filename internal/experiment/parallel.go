package experiment

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"v6lab/internal/device"
	"v6lab/internal/dnsmsg"
)

// The parallel study engine.
//
// The six Table 2 experiments are fully independent: each one builds its
// own switch and router, reboots every device stack, and the capture it
// produces depends only on (profiles, plans, config) — never on absolute
// time, because no stack or router service reads the clock into frame
// content; the clock only timestamps capture records. That leaves exactly
// two pieces of state threading the serial run together:
//
//   - the clock: experiment i starts where experiment i-1 left off, so
//     pcap timestamps are cumulative. Each parallel environment runs on a
//     private clock from a common base; afterwards the merge rebases
//     experiment i's record times by the summed elapsed time of
//     experiments 0..i-1. time.Time.Add is exact, so rebased timestamps
//     equal the serial ones bit for bit.
//   - the DHCPv4 transaction counter: Boot increments it once per
//     v4-enabled experiment (and fault-driven retries increment it
//     further). On a clean network the increment count before experiment
//     i is just the number of prior v4-enabled configs, so each
//     environment pre-seeds its stacks with that count. Under faults the
//     count depends on the previous experiments' retransmissions, which
//     is why faulted studies fall back to the serial engine
//     (runConnectivity).
//
// The cloud's domain registry is immutable while experiments run; its
// only run-time mutation is the per-type query diagnostic counter, so
// each environment gets a Clone sharing the registry with private
// counters, merged back (in config order) after the pool drains.
//
// Merging in config order makes the Results slice — and therefore
// FullReport and all six pcaps — byte-identical to the serial engine's.

// runConnectivityParallel executes the Table 2 grid on a bounded worker
// pool of isolated environments and merges the outcomes in config order.
func (st *Study) runConnectivityParallel(ctx context.Context, workers int) error {
	start := st.Clock.Now()
	type outcome struct {
		res     *RunResult
		queries map[dnsmsg.Type]int
		elapsed time.Duration
		err     error
	}
	outcomes := make([]outcome, len(Configs))
	if workers > len(Configs) {
		workers = len(Configs)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One environment per worker, reused across its jobs (and —
			// via the pool — across studies). beginRun's absolute clock
			// and XID seeding is what makes the reuse byte-invisible.
			env := st.acquireEnv(start)
			defer st.releaseEnv(env)
			for i := range jobs {
				if err := ctx.Err(); err != nil {
					outcomes[i] = outcome{err: err}
					continue
				}
				env.beginRun(start, Configs[:i])
				res, err := env.RunExperiment(Configs[i])
				outcomes[i] = outcome{
					res: res, queries: env.takeQueries(),
					elapsed: env.Clock.Now().Sub(start), err: err,
				}
			}
		}()
	}
	for i := range Configs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	// Scan for failures before touching st.Results: a cancelled or failed
	// pool leaves the study with no partial results appended.
	for i := range Configs {
		if err := outcomes[i].err; err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return err
			}
			return fmt.Errorf("experiment %s: %w", Configs[i].ID, err)
		}
	}
	var offset time.Duration
	for i := range Configs {
		out := outcomes[i]
		// Rebase this capture from the common base onto the serial
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
	// Leave the shared clock and stacks exactly where the serial engine
	// would: the port scan draws its timestamps and next DHCPv4 XID from
	// them.
	st.Clock.Advance(offset)
	st.seedDHCP4(Configs)
	return nil
}

// isolatedEnv builds a study sharing this one's immutable World
// (profiles, plans, domain registry) but with private stacks, clock,
// scratch, and query counters, so one experiment can run on it
// concurrently with others.
func (st *Study) isolatedEnv(base time.Time) *Study {
	env := NewStudyWith(StudyOptions{
		World:           st.World,
		Start:           base,
		MaxFramesPerRun: st.MaxFramesPerRun,
		Capture:         st.Capture,
		Observe:         st.Observe,
		Progress:        st.Progress,
	})
	// The environments share the parent's instruments: counter folds are
	// atomic additions (order-independent), and cloud-query folding stays
	// with the parent, which merges the environments' counters in config
	// order before its single fold.
	env.Telemetry, env.tm = st.Telemetry, st.tm
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
