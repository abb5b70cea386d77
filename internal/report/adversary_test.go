package report

import (
	"context"
	"strings"
	"testing"

	"v6lab/internal/adversary"
	"v6lab/internal/fleet"
)

// TestAdversaryWorkerCountInvariance is the acceptance check for the
// adversary subsystem: a 200-home population attacked with 1 worker and
// with 8 workers must render byte-identical reports — including the
// per-policy time-to-compromise table. Fleet results, campaign results
// and telemetry all merge in home index order, so parallelism can never
// leak into the output.
func TestAdversaryWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("200-home adversary run takes tens of seconds; skipped with -short")
	}
	cfg := adversary.Config{Fleet: fleet.Config{Homes: 200, Seed: 1}, CampaignSeed: 3}

	cfg.Fleet.Workers = 1
	serial, err := adversary.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fleet.Workers = 8
	parallel, err := adversary.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	a, b := Adversary(serial), Adversary(parallel)
	if a != b {
		t.Fatalf("adversary report differs between 1 and 8 workers:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", a, b)
	}

	// The report must actually carry the three phases' tables.
	for _, want := range []string{
		"200 homes",
		"Address discovery",
		"eui64-expansion",
		"Campaign sweep by firewall policy",
		"Worm propagation",
		"t_first",
	} {
		if !strings.Contains(a, want) {
			t.Errorf("adversary report missing %q:\n%s", want, a)
		}
	}
	// And the discovery outcome must show the designed asymmetry:
	// predictable addresses found, privacy addresses missed.
	if serial.Discovery.FoundEUI64 == 0 {
		t.Error("no EUI-64 addresses discovered on a 200-home fleet")
	}
	if serial.Discovery.FoundLowByte == 0 {
		t.Error("no low-byte addresses discovered on a 200-home fleet")
	}
	if serial.Discovery.MissedRandom == 0 {
		t.Error("every privacy address was discovered; the generator should miss them")
	}
}

// TestAdversaryRenderSmall renders a small run and spot-checks structure
// cheaply enough for -short.
func TestAdversaryRenderSmall(t *testing.T) {
	rep, err := adversary.RunContext(context.Background(), adversary.Config{Fleet: fleet.Config{Homes: 12, Workers: 4, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	out := Adversary(rep)
	for _, want := range []string{"Adversary — 12 homes", "campaign seed 1", "candidates tried", "Policy"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
