package v6lab

import (
	"fmt"

	"v6lab/internal/adversary"
	"v6lab/internal/experiment"
	"v6lab/internal/faults"
	"v6lab/internal/fleet"
	"v6lab/internal/timeline"
)

// PartOption tunes one composable part without touching the lab's global
// options: Fleet(64, Workers(4), Seed(7)) reads as one population with its
// own worker pool and seed. Every part resolves its settings the same
// way — an explicit PartOption wins over a config struct passed via
// FleetConfig/AdversaryConfig/TimelineConfig, which wins over the lab's
// WithWorkers/WithSeed defaults.
type PartOption func(*partConfig)

// partConfig accumulates the shared per-part settings.
type partConfig struct {
	seed        uint64
	seedSet     bool
	workers     int
	workersSet  bool
	impairments []faults.Profile
	fleetCfg    *fleet.Config
	advCfg      *adversary.Config
	tlCfg       *timeline.Config
}

func applyParts(opts []PartOption) partConfig {
	var pc partConfig
	for _, o := range opts {
		o(&pc)
	}
	return pc
}

// Seed sets the part's derivation seed, independent of the lab's
// WithSeed.
func Seed(seed uint64) PartOption {
	return func(pc *partConfig) { pc.seed = seed; pc.seedSet = true }
}

// Workers bounds the part's worker pool, independent of the lab's
// WithWorkers. Output is byte-identical for every value.
func Workers(n int) PartOption {
	return func(pc *partConfig) { pc.workers = n; pc.workersSet = true }
}

// Impairments runs the part under the given fault profiles: the grid for
// Resilience, a single long-horizon profile for Timeline (which uses the
// first). Profiles without an explicit seed inherit the part's.
func Impairments(profiles ...faults.Profile) PartOption {
	return func(pc *partConfig) { pc.impairments = append(pc.impairments, profiles...) }
}

// FleetConfig supplies a full population config to Fleet (or to the fleet
// an Adversary or Timeline part builds). Individual PartOptions still
// override its fields.
func FleetConfig(cfg fleet.Config) PartOption {
	return func(pc *partConfig) { pc.fleetCfg = &cfg }
}

// AdversaryConfig supplies a full attack config to Adversary.
func AdversaryConfig(cfg adversary.Config) PartOption {
	return func(pc *partConfig) { pc.advCfg = &cfg }
}

// TimelineConfig supplies a full long-horizon config to Timeline.
func TimelineConfig(cfg timeline.Config) PartOption {
	return func(pc *partConfig) { pc.tlCfg = &cfg }
}

// Fleet simulates a population of n independent homes. With no options it
// is the default fleet configuration (household-size distribution,
// connectivity and firewall-policy mixes); PartOptions and FleetConfig
// refine it. n <= 0 keeps the config's (or default) population size.
// Results land in FleetPop and the FleetStudy artifact. It is independent
// of Connectivity: either may run first, or alone.
func Fleet(n int, opts ...PartOption) RunPart {
	pc := applyParts(opts)
	return func(l *Lab) error {
		var cfg fleet.Config
		if pc.fleetCfg != nil {
			cfg = *pc.fleetCfg
		}
		if n > 0 {
			cfg.Homes = n
		}
		l.resolveFleet(&cfg, &pc)
		pop, err := fleet.RunContext(l.runCtx(), cfg)
		if err != nil {
			return err
		}
		l.FleetPop = pop
		return nil
	}
}

// resolveFleet applies the part-option precedence to a fleet config.
func (l *Lab) resolveFleet(cfg *fleet.Config, pc *partConfig) {
	if pc.seedSet {
		cfg.Seed = pc.seed
	}
	if pc.workersSet {
		cfg.Workers = pc.workers
	} else if cfg.Workers == 0 {
		cfg.Workers = l.opts.workers
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = l.opts.telemetry
	}
	if cfg.Progress == nil {
		cfg.Progress = l.opts.progress
	}
}

// Adversary simulates an Internet-scale attacker against a population of
// n homes: address discovery against every home's /64, a campaign sweep
// through each home's firewall policy, and worm propagation across the
// discovered population. PartOptions and AdversaryConfig refine the
// attack. Results land in Adv and the AdversaryStudy artifact.
func Adversary(n int, opts ...PartOption) RunPart {
	pc := applyParts(opts)
	return func(l *Lab) error {
		var cfg adversary.Config
		if pc.advCfg != nil {
			cfg = *pc.advCfg
		}
		if pc.fleetCfg != nil {
			cfg.Fleet = *pc.fleetCfg
		}
		if n > 0 {
			cfg.Fleet.Homes = n
		}
		if pc.seedSet {
			cfg.Fleet.Seed = pc.seed
			if cfg.CampaignSeed == 0 {
				cfg.CampaignSeed = pc.seed
			}
		}
		if pc.workersSet {
			cfg.Fleet.Workers = pc.workers
		} else if cfg.Fleet.Workers == 0 {
			cfg.Fleet.Workers = l.opts.workers
		}
		if cfg.Telemetry == nil {
			cfg.Telemetry = l.opts.telemetry
		}
		if cfg.Progress == nil {
			cfg.Progress = l.opts.progress
		}
		rep, err := adversary.RunContext(l.runCtx(), cfg)
		if err != nil {
			return err
		}
		l.Adv = rep
		return nil
	}
}

// Resilience re-runs the Table 2 grid under each impairment profile —
// Impairments(...) to choose them, faults.Grid() (clean, lossy-wifi,
// clamped-tunnel, flaky-dnsmasq) when none are given — building a fresh
// isolated study per profile from the lab's options. Profiles without an
// explicit seed inherit Seed(...) or WithSeed. Results land in Resil and
// the ResilienceStudy artifact.
func Resilience(opts ...PartOption) RunPart {
	pc := applyParts(opts)
	return func(l *Lab) error {
		profiles := pc.impairments
		if len(profiles) == 0 {
			profiles = faults.Grid()
		}
		seed := l.opts.seed
		if pc.seedSet {
			seed = pc.seed
		}
		seeded := make([]faults.Profile, len(profiles))
		for i, p := range profiles {
			if p.Seed == 0 {
				p.Seed = seed
			}
			seeded[i] = p
		}
		so := l.studyOptions()
		if pc.workersSet {
			so.Workers = pc.workers
		}
		rep, err := experiment.RunResilienceContext(l.runCtx(), so, seeded...)
		if err != nil {
			return err
		}
		l.Resil = rep
		return nil
	}
}

// Timeline runs the long-horizon event-scheduled engine: a population of
// homes simulated over h of simulated time (days to weeks), with diurnal
// workload bursts, DHCP lease renewals, RA lifetime expiries, sleep/wake
// and power-cycle churn, and periodic ISP prefix rotations. A zero h
// falls back to the lab's WithHorizon; having neither is an
// ErrInvalidHorizon. The part never buffers frames: a week of simulated
// time never holds a week of frames. Results land in TL and the
// TimelineStudy artifact.
func Timeline(h Horizon, opts ...PartOption) RunPart {
	pc := applyParts(opts)
	return func(l *Lab) error {
		var cfg timeline.Config
		if pc.tlCfg != nil {
			cfg = *pc.tlCfg
		}
		if pc.fleetCfg != nil {
			cfg.Fleet = *pc.fleetCfg
			// The timeline's own Homes/Seed govern its fleet; a FleetConfig
			// that sets them flows through unless the timeline config did.
			if cfg.Homes == 0 {
				cfg.Homes = pc.fleetCfg.Homes
			}
			if cfg.Seed == 0 {
				cfg.Seed = pc.fleetCfg.Seed
			}
		}
		if !h.IsZero() {
			cfg.Horizon = h.Duration()
		}
		if cfg.Horizon == 0 && !l.opts.horizon.IsZero() {
			cfg.Horizon = l.opts.horizon.Duration()
		}
		if cfg.Horizon <= 0 {
			return fmt.Errorf("%w: Timeline needs a horizon (e.g. v6lab.Weeks(1) or WithHorizon)", ErrInvalidHorizon)
		}
		if pc.seedSet {
			cfg.Seed = pc.seed
		} else if cfg.Seed == 0 {
			cfg.Seed = l.opts.seed
		}
		if pc.workersSet {
			cfg.Workers = pc.workers
		} else if cfg.Workers == 0 {
			cfg.Workers = l.opts.workers
		}
		if cfg.Impairments == nil {
			if len(pc.impairments) > 0 {
				cfg.Impairments = &pc.impairments[0]
			} else if l.opts.fault != nil {
				cfg.Impairments = l.opts.fault
			}
		}
		if cfg.Telemetry == nil {
			cfg.Telemetry = l.opts.telemetry
		}
		if cfg.Progress == nil {
			cfg.Progress = l.opts.progress
		}
		rep, err := timeline.RunContext(l.runCtx(), cfg)
		if err != nil {
			return err
		}
		l.TL = rep
		return nil
	}
}
