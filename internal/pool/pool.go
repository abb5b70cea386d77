// Package pool is the simulator's one worker pool: the study's parallel
// grid, the resilience grid, the fleet and the timeline all fan their
// independent jobs out through Run. Each job writes its outcome to its own
// slot, and the caller merges the slots in index order, which is what keeps
// every engine's output byte-identical for any worker count.
package pool

import (
	"context"
	"sync"
	"sync/atomic"
)

// Run runs jobs 0..n-1 on min(workers, n) goroutines, at least one and none
// when n is 0. Each goroutine calls start once with its worker index and
// runs the returned job function on every index it draws; indexes are drawn
// in increasing order, so one worker runs the jobs in order. Per-worker
// state lives in the closure start returns.
//
// ctx is checked before each job, and a skipped job records ctx's error.
// Run returns once every worker is done: ctx.Err() if ctx is done,
// otherwise the error of the lowest failing index, otherwise nil.
func Run(ctx context.Context, n, workers int, start func(worker int) func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range min(max(workers, 1), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			job := start(w)
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				if errs[i] = ctx.Err(); errs[i] == nil {
					errs[i] = job(i)
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
