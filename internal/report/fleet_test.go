package report

import (
	"context"
	"strings"
	"testing"

	"v6lab/internal/fleet"
)

// TestFleetWorkerCountInvariance is the acceptance check for the fleet
// simulator: a 100-home population rendered from a 1-worker run and from
// an 8-worker run must be byte-identical. The merge happens in home index
// order, so parallelism can never leak into the output.
func TestFleetWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("100-home fleet takes several seconds; skipped with -short")
	}
	cfg := fleet.Config{Homes: 100, Seed: 1}

	cfg.Workers = 1
	serial, err := fleet.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	parallel, err := fleet.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	a, b := Fleet(serial), Fleet(parallel)
	if a != b {
		t.Fatalf("fleet report differs between 1 and 8 workers:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", a, b)
	}

	// Sanity on the rendered content itself.
	for _, want := range []string{
		"100 simulated homes",
		"Connectivity funnel by Table 2 config",
		"Population prevalence",
		"Prevalence by firewall policy",
		"Inbound IPv6 exposure by firewall policy",
	} {
		if !strings.Contains(a, want) {
			t.Errorf("fleet report missing %q:\n%s", want, a)
		}
	}
}

// TestFleetRenderSmall renders a tiny fleet and checks the structural
// invariants hold without the 100-home cost.
func TestFleetRenderSmall(t *testing.T) {
	pop, err := fleet.RunContext(context.Background(), fleet.Config{Homes: 3, Workers: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	out := Fleet(pop)
	if !strings.Contains(out, "3 simulated homes (seed 9)") {
		t.Errorf("missing title line:\n%s", out)
	}
	if !strings.Contains(out, "homes fully functional") {
		t.Errorf("missing prevalence block:\n%s", out)
	}
	if !strings.Contains(out, "Prevalence by firewall policy") {
		t.Errorf("missing per-policy prevalence block:\n%s", out)
	}
	if len(out) < 40 {
		t.Errorf("report suspiciously short (%d bytes)", len(out))
	}
}
