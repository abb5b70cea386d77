package timeline

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"v6lab/internal/faults"
	"v6lab/internal/telemetry"
)

// encodeHomes is the byte-identity fingerprint: the full per-home results
// in home index order. Cfg is excluded because Workers legitimately
// differs between the runs being compared.
func encodeHomes(t *testing.T, r *Report) []byte {
	t.Helper()
	b, err := json.Marshal(r.Homes)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

func TestTimelineWorkerCountInvariance(t *testing.T) {
	cfg := Config{
		Horizon: 72 * time.Hour,
		Homes:   12,
		Seed:    7,
	}
	cfg.Workers = 1
	serial, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	cfg.Workers = 8
	parallel, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("workers=8: %v", err)
	}
	a, b := encodeHomes(t, serial), encodeHomes(t, parallel)
	if !bytes.Equal(a, b) {
		t.Fatalf("reports differ between 1 and 8 workers:\n%d vs %d bytes", len(a), len(b))
	}
	if serial.Totals().Frames == 0 {
		t.Fatal("no frames delivered over a 3-day horizon")
	}
}

func TestTimelineRotationProducesOutages(t *testing.T) {
	r, err := RunContext(context.Background(), Config{
		Horizon: 72 * time.Hour,
		Homes:   8,
		Workers: 4,
		Seed:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	tot := r.Totals()
	if tot.Rotations == 0 {
		t.Fatal("no prefix rotations over 3 days at the 60h rotation period")
	}
	if tot.Recovered == 0 {
		t.Fatal("no home re-addressed after a rotation")
	}
	if tot.OutageTotal <= 0 {
		t.Fatalf("rotations recovered with zero outage: %+v", tot)
	}
	if tot.OutageMax > 2*time.Hour {
		t.Fatalf("implausible outage max %v (RA interval is 600s)", tot.OutageMax)
	}
}

func TestTimelineDiurnalAndChurn(t *testing.T) {
	r, err := RunContext(context.Background(), Config{
		Horizon: 72 * time.Hour,
		Homes:   10,
		Workers: 4,
		Seed:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	tot := r.Totals()
	if len(tot.Days) != 3 {
		t.Fatalf("want 3 day buckets, got %d", len(tot.Days))
	}
	for d, ds := range tot.Days {
		if ds.BurstsAttempted == 0 {
			t.Fatalf("day %d: no bursts attempted", d)
		}
		if ds.BurstsOK == 0 {
			t.Fatalf("day %d: no bursts succeeded", d)
		}
	}
	if tot.Sleeps == 0 || tot.Wakes == 0 {
		t.Fatalf("no sleep/wake churn: %+v", tot)
	}
	if tot.PowerCycles == 0 {
		t.Fatal("no power cycles over 3 days")
	}
	if tot.V4.Attempts == 0 || tot.V4.Renewed == 0 {
		t.Fatalf("v4 renewal funnel empty: %+v", tot.V4)
	}
	if tot.V6.Attempts == 0 || tot.V6.Renewed == 0 {
		t.Fatalf("v6 renewal funnel empty: %+v", tot.V6)
	}
	if tot.RAExpiries == 0 {
		t.Fatal("no RA expiries despite multi-hour sleepers")
	}
}

func TestTimelineImpairedRenewalsFail(t *testing.T) {
	prof, err := faults.ByName("flaky-dnsmasq")
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunContext(context.Background(), Config{
		Horizon:     48 * time.Hour,
		Homes:       6,
		Workers:     2,
		Seed:        11,
		Impairments: &prof,
	})
	if err != nil {
		t.Fatal(err)
	}
	tot := r.Totals()
	if tot.V4.RenewedRetry+tot.V4.Expired+tot.V4.Failed == 0 {
		t.Fatalf("flaky-dnsmasq produced a perfect v4 funnel: %+v", tot.V4)
	}
}

func TestTimelineCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	sink := telemetry.FuncSink(func(telemetry.Event) {
		once.Do(cancel) // cancel mid-run, after the first home completes
	})
	r, err := RunContext(ctx, Config{
		Horizon:  72 * time.Hour,
		Homes:    16,
		Workers:  2,
		Seed:     9,
		Progress: sink,
	})
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if r != nil {
		t.Fatalf("cancelled run returned a partial report with %d homes", len(r.Homes))
	}
}

func TestTimelineRejectsNonPositiveHorizon(t *testing.T) {
	for _, h := range []time.Duration{0, -time.Hour} {
		if _, err := RunContext(context.Background(), Config{Horizon: h, Homes: 1}); err == nil {
			t.Fatalf("horizon %v accepted", h)
		}
	}
}
