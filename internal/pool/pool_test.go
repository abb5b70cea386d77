package pool

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// Every index runs exactly once, on at most min(workers, n) workers (one
// when workers is not positive), each of which calls start once.
func TestRunEveryIndexOnce(t *testing.T) {
	const n = 7
	for _, workers := range []int{-1, 0, 1, 3, n + 5} {
		t.Run(fmt.Sprint(workers), func(t *testing.T) {
			var ran [n]atomic.Int32
			var mu sync.Mutex
			started := map[int]int{}
			err := Run(context.Background(), n, workers, func(w int) func(int) error {
				mu.Lock()
				started[w]++
				mu.Unlock()
				return func(i int) error {
					ran[i].Add(1)
					return nil
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range ran {
				if got := ran[i].Load(); got != 1 {
					t.Errorf("index %d ran %d times", i, got)
				}
			}
			want := min(max(workers, 1), n)
			if len(started) > want {
				t.Errorf("%d workers started, want at most %d", len(started), want)
			}
			for w, c := range started {
				if w < 0 || w >= want || c != 1 {
					t.Errorf("worker %d started %d times", w, c)
				}
			}
		})
	}
}

// With no jobs, Run starts no worker.
func TestRunNoJobs(t *testing.T) {
	err := Run(context.Background(), 0, 4, func(int) func(int) error {
		t.Error("start called with n = 0")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A single worker runs the jobs in index order.
func TestRunOneWorkerInOrder(t *testing.T) {
	var order []int
	err := Run(context.Background(), 5, 1, func(int) func(int) error {
		return func(i int) error {
			order = append(order, i)
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[0 1 2 3 4]" {
		t.Fatalf("order %v", order)
	}
}

// The lowest failing index's error wins, even when a higher index fails
// first: job 2 fails, and only then does job 1 fail.
func TestRunLowestFailingIndexWins(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	highFailed := make(chan struct{})
	err := Run(context.Background(), 3, 3, func(int) func(int) error {
		return func(i int) error {
			switch i {
			case 1:
				<-highFailed
				return errLow
			case 2:
				close(highFailed)
				return errHigh
			}
			return nil
		}
	})
	if err != errLow {
		t.Fatalf("err = %v, want %v", err, errLow)
	}
}

// A ctx cancelled before Run runs no job.
func TestRunCancelledBefore(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Run(ctx, 4, 2, func(int) func(int) error {
		return func(i int) error {
			t.Errorf("job %d ran", i)
			return nil
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// A ctx cancelled mid-run wins over a job's own error, and the jobs after
// the cancellation are skipped.
func TestRunCancelledMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int32
	err := Run(ctx, 5, 1, func(int) func(int) error {
		return func(i int) error {
			ran.Add(1)
			if i == 1 {
				cancel()
				return errors.New("job failed")
			}
			return nil
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got != 2 {
		t.Fatalf("%d jobs ran, want 2", got)
	}
}
