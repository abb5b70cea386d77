package v6lab

import (
	"fmt"

	"v6lab/internal/adversary"
	"v6lab/internal/experiment"
	"v6lab/internal/faults"
	"v6lab/internal/fleet"
	"v6lab/internal/telemetry"
	"v6lab/internal/timeline"
)

// PartOption tunes one composable part without touching the lab's global
// options: Fleet(64, Workers(4), Seed(7)) reads as one population with its
// own worker pool and seed. Fleet, Adversary, Timeline and Resilience
// resolve the settings they share through one rule (resolve): an explicit
// PartOption wins over a nonzero field of the config struct passed via
// FleetConfig/AdversaryConfig/TimelineConfig, which wins over the lab's
// default — WithSeed, WithWorkers, WithMaxFramesPerRun, WithTelemetry and
// WithProgress. Seed and Workers are the settings with a PartOption; the
// frame budget, telemetry and progress come from the config or the lab.
// The horizon, impairments and the adversary's CampaignSeed are
// part-specific (see Timeline and Adversary).
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

// Seed sets the part's derivation seed, overriding the config's and the
// lab's WithSeed.
func Seed(seed uint64) PartOption {
	return func(pc *partConfig) { pc.seed = seed; pc.seedSet = true }
}

// Workers bounds the part's worker pool, overriding the config's and the
// lab's WithWorkers. Output is byte-identical for every value.
func Workers(n int) PartOption {
	return func(pc *partConfig) { pc.workers = n; pc.workersSet = true }
}

// Impairments runs the part under the given fault profiles: the grid for
// Resilience, a single long-horizon profile for Timeline (which uses the
// first). A profile without an explicit seed takes Resilience's resolved
// seed (Seed, else WithSeed); Timeline's takes WithSeed, as the lab's own
// WithFaultProfile does.
func Impairments(profiles ...faults.Profile) PartOption {
	return func(pc *partConfig) { pc.impairments = append(pc.impairments, profiles...) }
}

// FleetConfig supplies a full population config to Fleet (or to the fleet
// an Adversary part attacks). Its zero Seed, Workers, MaxFramesPerRun,
// Telemetry and Progress take the lab's; Seed and Workers PartOptions
// override it. A Timeline draws its homes from the default mixes and does
// not read it.
func FleetConfig(cfg fleet.Config) PartOption {
	return func(pc *partConfig) { pc.fleetCfg = &cfg }
}

// AdversaryConfig supplies a full attack config to Adversary.
func AdversaryConfig(cfg adversary.Config) PartOption {
	return func(pc *partConfig) { pc.advCfg = &cfg }
}

// TimelineConfig supplies a full long-horizon config to Timeline. Its zero
// Seed, Workers, MaxFramesPerDrain, Telemetry and Progress take the lab's;
// Seed and Workers PartOptions override it.
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
		pop, err := fleet.RunContext(l.runCtx(), l.fleetConfig(n, pc))
		if err != nil {
			return err
		}
		l.FleetPop = pop
		return nil
	}
}

// fleetConfig resolves the population config of Fleet(n, ...) — and of
// the fleet an Adversary attacks.
func (l *Lab) fleetConfig(n int, pc partConfig) fleet.Config {
	var cfg fleet.Config
	if pc.fleetCfg != nil {
		cfg = *pc.fleetCfg
	}
	if n > 0 {
		cfg.Homes = n
	}
	l.resolve(pc, &cfg.Seed, &cfg.Workers, &cfg.MaxFramesPerRun, &cfg.Telemetry, &cfg.Progress)
	return cfg
}

// resolve applies the PartOption > config > lab precedence to the settings
// every population part shares. Each pointer addresses the part config's
// own field, so the resolved value lives in exactly one place.
func (l *Lab) resolve(pc partConfig, seed *uint64, workers, maxFrames *int, reg **telemetry.Registry, progress *telemetry.Sink) {
	if pc.seedSet {
		*seed = pc.seed
	} else if *seed == 0 {
		*seed = l.opts.seed
	}
	if pc.workersSet {
		*workers = pc.workers
	} else if *workers == 0 {
		*workers = l.opts.workers
	}
	if *maxFrames == 0 {
		*maxFrames = l.opts.maxFrames
	}
	if *reg == nil {
		*reg = l.opts.telemetry
	}
	if *progress == nil {
		*progress = l.opts.progress
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
		rep, err := adversary.RunContext(l.runCtx(), l.adversaryConfig(n, pc))
		if err != nil {
			return err
		}
		l.Adv = rep
		return nil
	}
}

// adversaryConfig resolves the attack config of Adversary(n, ...). A
// FleetConfig replaces the AdversaryConfig's fleet.
func (l *Lab) adversaryConfig(n int, pc partConfig) adversary.Config {
	var cfg adversary.Config
	if pc.advCfg != nil {
		cfg = *pc.advCfg
	}
	if pc.fleetCfg == nil {
		pc.fleetCfg = &cfg.Fleet
	}
	cfg.Fleet = l.fleetConfig(n, pc)
	// A Seed PartOption also seeds a campaign the config left unseeded.
	if pc.seedSet && cfg.CampaignSeed == 0 {
		cfg.CampaignSeed = pc.seed
	}
	return cfg
}

// Resilience re-runs the Table 2 grid under each impairment profile —
// Impairments(...) to choose them, faults.Grid() (clean, lossy-wifi,
// clamped-tunnel, flaky-dnsmasq) when none are given — building a fresh
// isolated study per profile over the lab's world, with the lab study's
// settings. Profiles without an explicit seed inherit Seed(...) or
// WithSeed. Results land in Resil and the ResilienceStudy artifact.
func Resilience(opts ...PartOption) RunPart {
	pc := applyParts(opts)
	return func(l *Lab) error {
		profiles := pc.impairments
		if len(profiles) == 0 {
			profiles = faults.Grid()
		}
		so := l.Study.Options()
		var seed uint64
		l.resolve(pc, &seed, &so.Workers, &so.MaxFramesPerRun, &so.Telemetry, &so.Progress)
		seeded := make([]faults.Profile, len(profiles))
		for i, p := range profiles {
			if p.Seed == 0 {
				p.Seed = seed
			}
			seeded[i] = p
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
		cfg, err := l.timelineConfig(h, pc)
		if err != nil {
			return err
		}
		rep, err := timeline.RunContext(l.runCtx(), cfg)
		if err != nil {
			return err
		}
		l.TL = rep
		return nil
	}
}

// timelineConfig resolves the long-horizon config of Timeline(h, ...).
func (l *Lab) timelineConfig(h Horizon, pc partConfig) (timeline.Config, error) {
	var cfg timeline.Config
	if pc.tlCfg != nil {
		cfg = *pc.tlCfg
	}
	if !h.IsZero() {
		cfg.Horizon = h.Duration()
	}
	if cfg.Horizon == 0 && !l.opts.horizon.IsZero() {
		cfg.Horizon = l.opts.horizon.Duration()
	}
	if cfg.Horizon <= 0 {
		return cfg, fmt.Errorf("%w: Timeline needs a horizon (e.g. v6lab.Weeks(1) or WithHorizon)", ErrInvalidHorizon)
	}
	l.resolve(pc, &cfg.Seed, &cfg.Workers, &cfg.MaxFramesPerDrain, &cfg.Telemetry, &cfg.Progress)
	if cfg.Impairments == nil {
		if len(pc.impairments) > 0 {
			cfg.Impairments = &pc.impairments[0]
		} else if l.opts.fault != nil {
			cfg.Impairments = l.opts.fault
		}
	}
	if cfg.Impairments != nil && cfg.Impairments.Seed == 0 {
		fp := *cfg.Impairments
		fp.Seed = l.opts.seed
		cfg.Impairments = &fp
	}
	return cfg, nil
}
