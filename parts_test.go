package v6lab

import (
	"io"
	"strings"
	"testing"
	"time"

	"v6lab/internal/adversary"
	"v6lab/internal/fleet"
	"v6lab/internal/telemetry"
	"v6lab/internal/timeline"
)

// partSettings is what every population part resolves the same way.
type partSettings struct {
	seed     uint64
	workers  int
	frames   int
	reg      *telemetry.Registry
	progress telemetry.Sink
}

// TestPartSettingsPrecedence: Fleet, Adversary and Timeline resolve seed,
// workers, frame budget, telemetry and progress by one rule — a PartOption
// beats the config struct, which beats the lab's default.
func TestPartSettingsPrecedence(t *testing.T) {
	labReg, cfgReg := telemetry.NewRegistry(), telemetry.NewRegistry()
	labSink, cfgSink := telemetry.NewWriterSink(io.Discard), telemetry.NewWriterSink(io.Discard)
	lab := New(WithSeed(5), WithWorkers(3), WithMaxFramesPerRun(777),
		WithTelemetry(labReg), WithProgress(labSink))
	fc := fleet.Config{Seed: 7, Workers: 4, MaxFramesPerRun: 888, Telemetry: cfgReg, Progress: cfgSink}
	tc := timeline.Config{Seed: 7, Workers: 4, MaxFramesPerDrain: 888, Telemetry: cfgReg, Progress: cfgSink}

	fromFleet := func(c fleet.Config) partSettings {
		return partSettings{c.Seed, c.Workers, c.MaxFramesPerRun, c.Telemetry, c.Progress}
	}
	parts := []struct {
		name    string
		config  PartOption
		resolve func(pc partConfig) partSettings
	}{
		{"fleet", FleetConfig(fc), func(pc partConfig) partSettings {
			return fromFleet(lab.fleetConfig(2, pc))
		}},
		{"adversary", AdversaryConfig(adversary.Config{Fleet: fc}), func(pc partConfig) partSettings {
			return fromFleet(lab.adversaryConfig(2, pc).Fleet)
		}},
		{"adversary+FleetConfig", FleetConfig(fc), func(pc partConfig) partSettings {
			return fromFleet(lab.adversaryConfig(2, pc).Fleet)
		}},
		{"timeline", TimelineConfig(tc), func(pc partConfig) partSettings {
			c, err := lab.timelineConfig(Days(1), pc)
			if err != nil {
				t.Fatal(err)
			}
			return partSettings{c.Seed, c.Workers, c.MaxFramesPerDrain, c.Telemetry, c.Progress}
		}},
	}
	for _, p := range parts {
		for _, tt := range []struct {
			layer string
			opts  []PartOption
			want  partSettings
		}{
			{"lab", nil, partSettings{5, 3, 777, labReg, labSink}},
			{"config", []PartOption{p.config}, partSettings{7, 4, 888, cfgReg, cfgSink}},
			{"part option", []PartOption{p.config, Seed(9), Workers(2)}, partSettings{9, 2, 888, cfgReg, cfgSink}},
		} {
			if got := p.resolve(applyParts(tt.opts)); got != tt.want {
				t.Errorf("%s, %s wins: resolved %+v, want %+v", p.name, tt.layer, got, tt.want)
			}
		}
	}
}

// TestLabFrameBudgetReachesParts: WithMaxFramesPerRun bounds every
// population part's runs, so a one-frame budget fails each of them.
func TestLabFrameBudgetReachesParts(t *testing.T) {
	for name, part := range map[string]RunPart{
		"fleet":     Fleet(1),
		"adversary": Adversary(1),
		"timeline":  Timeline(Days(1), TimelineConfig(timeline.Config{Homes: 1})),
	} {
		err := New(WithMaxFramesPerRun(1)).Run(part)
		if err == nil || !strings.Contains(err.Error(), "frame budget 1 exhausted") {
			t.Errorf("%s under a one-frame budget: err = %v, want the frame-budget error", name, err)
		}
	}
}

// TestAdversaryCountsIntoFleetTelemetry: the registry an adversary config
// sets on its fleet receives the adversary's counters as well as the
// fleet's.
func TestAdversaryCountsIntoFleetTelemetry(t *testing.T) {
	r := telemetry.NewRegistry()
	part := Adversary(2, AdversaryConfig(adversary.Config{Fleet: fleet.Config{Telemetry: r}}))
	if err := New().Run(part); err != nil {
		t.Fatal(err)
	}
	counted := map[string]bool{}
	for _, p := range r.Snapshot(time.Time{}).Points {
		counted[p.Name] = true
	}
	for _, name := range []string{"fleet_homes_completed_total", "adversary_campaign_probes_total"} {
		if !counted[name] {
			t.Errorf("%s missing from the fleet config's registry", name)
		}
	}
}
