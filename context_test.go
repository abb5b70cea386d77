package v6lab

import (
	"context"
	"errors"
	"sync"
	"testing"

	"v6lab/internal/telemetry"
)

// TestRunContextCancelledBeforeStart: a context that is already cancelled
// stops RunContext before any part runs.
func TestRunContextCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	lab := New(WithDevices("Wyze Cam"))
	err := lab.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if lab.Data != nil {
		t.Error("cancelled run must not populate Data")
	}
}

// TestRunContextCancelMidFleet cancels from the progress sink after the
// first home completes: the run must return a clean context.Canceled and
// leave no partial Population on the lab.
func TestRunContextCancelMidFleet(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	sink := telemetry.FuncSink(func(telemetry.Event) { once.Do(cancel) })
	lab := New(WithProgress(sink))
	err := lab.RunContext(ctx, Fleet(12, Workers(1), Seed(3)))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if lab.FleetPop != nil {
		t.Error("cancelled fleet run must not leave a partial Population")
	}
}

// TestRunContextCancelMidStudy cancels from the progress sink after the
// first experiment finishes: at one worker and at three alike the study
// returns context.Canceled with no partial results.
func TestRunContextCancelMidStudy(t *testing.T) {
	for _, workers := range []int{1, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		var once sync.Once
		sink := telemetry.FuncSink(func(ev telemetry.Event) {
			if ev.Scope == "experiment" {
				once.Do(cancel)
			}
		})
		lab := New(WithDevices("Wyze Cam", "Apple TV"), WithWorkers(workers), WithProgress(sink))
		err := lab.RunContext(ctx)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers %d: err = %v, want context.Canceled", workers, err)
		}
		if lab.Data != nil {
			t.Errorf("workers %d: cancelled study must not populate Data", workers)
		}
		if n := len(lab.Study.Results); n != 0 {
			t.Errorf("workers %d: cancelled study kept %d partial results", workers, n)
		}
	}
}

// TestRunContextCancelBetweenParts: a part that cancels during its run
// stops the next part from starting.
func TestRunContextCancelBetweenParts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ranSecond := false
	first := RunPart(func(l *Lab) error { cancel(); return nil })
	second := RunPart(func(l *Lab) error { ranSecond = true; return nil })
	err := New(WithDevices("Wyze Cam")).RunContext(ctx, first, second)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ranSecond {
		t.Error("second part ran after cancellation")
	}
}

// TestRunContextCancelMidResilience cancels after the first profile's
// progress event; the grid must abort cleanly with Resil left nil.
func TestRunContextCancelMidResilience(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	sink := telemetry.FuncSink(func(ev telemetry.Event) {
		if ev.Scope == "resilience" {
			once.Do(cancel)
		}
	})
	lab := New(WithDevices("Wyze Cam"), WithProgress(sink))
	err := lab.RunContext(ctx, Resilience())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if lab.Resil != nil {
		t.Error("cancelled resilience run must not populate Resil")
	}
}
