package experiment

import (
	"context"
	"fmt"

	"v6lab/internal/faults"
	"v6lab/internal/pool"
	"v6lab/internal/telemetry"
)

// ResilienceConfig aggregates one Table 2 experiment's outcome under one
// impairment profile.
type ResilienceConfig struct {
	// ID is the experiment slug ("ipv6-only-stateful").
	ID string
	// Devices and Functional count the population and how many passed the
	// functionality test.
	Devices, Functional int
	// Failures histograms device.FailureStage over the population
	// ("ok", "no-ra", "data-stalled", ...).
	Failures map[string]int
	// FailedDevices lists the non-functional device names in registry
	// order (the report cross-references profiles with them).
	FailedDevices []string
	// Diagnostics carried over from the RunResult.
	FramesDelivered, FramesDropped, Retransmits, PTBSent, ServiceDrops int
}

// ResilienceProfile is the full Table 2 grid under one impairment profile.
type ResilienceProfile struct {
	Profile  faults.Profile
	ByConfig []ResilienceConfig
	// FunctionalTotal sums functional device-runs across the grid.
	FunctionalTotal int
}

// ResilienceReport is the artifact of the impairment-grid experiment: the
// six connectivity configurations re-run under each fault profile.
type ResilienceReport struct {
	// Devices is the per-config population size.
	Devices int
	// Profiles holds one grid per impairment profile, in the order given.
	Profiles []*ResilienceProfile
}

// Config returns the outcome for (profile, config id), or nil.
func (r *ResilienceReport) Config(profile, id string) *ResilienceConfig {
	for _, p := range r.Profiles {
		if p.Profile.Name != profile {
			continue
		}
		for i := range p.ByConfig {
			if p.ByConfig[i].ID == id {
				return &p.ByConfig[i]
			}
		}
	}
	return nil
}

// RunResilienceContext re-runs the Table 2 connectivity grid under each
// fault profile (faults.Grid() when profiles is empty) and reports
// per-profile functionality and failure modes. Each profile gets a fresh,
// isolated study built from opts over opts.World (every profile shares
// the one immutable world and builds only its own stacks), so impairment
// in one profile cannot leak state into another; the whole experiment is
// deterministic in (opts, profiles).
//
// Profiles run on a pool of opts.Workers workers (one when unset) — each
// profile's study is already fully isolated, so the grid is
// embarrassingly parallel at the profile level — and the report lists
// them in the order given, identical for any worker count. Within a
// profile the six experiments run on the study's grid engine with one
// worker. ctx is checked before each experiment, and a cancelled run
// returns ctx.Err() with no report.
func RunResilienceContext(ctx context.Context, opts StudyOptions, profiles ...faults.Profile) (*ResilienceReport, error) {
	if len(profiles) == 0 {
		profiles = faults.Grid()
	}
	// The grid reads stack and router state (failure stages, drop and
	// retransmit counters), never frames: no capture, no analysis tap.
	opts.Capture, opts.Observe = CaptureNone, nil
	rep := &ResilienceReport{
		Devices:  len(opts.World.Profiles),
		Profiles: make([]*ResilienceProfile, len(profiles)),
	}
	err := pool.Run(ctx, len(profiles), opts.Workers, func(int) func(int) error {
		// Scratch is single-threaded: each worker gets its own, whatever
		// the caller passed in opts. The profiles fill the pool, so each
		// profile's grid runs on one worker.
		wopts := opts
		wopts.Scratch, wopts.Workers = NewScratch(), 1
		return func(i int) (err error) {
			rep.Profiles[i], err = runResilienceProfile(ctx, wopts, profiles[i])
			return err
		}
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// runResilienceProfile runs the full Table 2 grid under one fault profile
// on a study of its own and diagnoses each run from its failure stages.
func runResilienceProfile(ctx context.Context, opts StudyOptions, p faults.Profile) (*ResilienceProfile, error) {
	fp := p
	opts.Faults = &fp
	st := NewStudyWith(opts)
	began := st.Clock.Now()
	if err := st.runConnectivity(ctx); err != nil {
		return nil, fmt.Errorf("resilience %s: %w", p.Name, err)
	}
	po := &ResilienceProfile{Profile: p}
	for _, res := range st.Results {
		rc := ResilienceConfig{
			ID:              res.Config.ID,
			Devices:         len(res.Stages),
			Failures:        map[string]int{},
			FramesDelivered: res.FramesDelivered,
			FramesDropped:   res.FramesDropped,
			Retransmits:     res.Retransmits,
			PTBSent:         res.PTBSent,
			ServiceDrops:    res.ServiceDrops,
		}
		for i, stage := range res.Stages {
			rc.Failures[stage]++
			if stage == "ok" {
				rc.Functional++
			} else {
				rc.FailedDevices = append(rc.FailedDevices, st.Profiles[i].Name)
			}
		}
		po.ByConfig = append(po.ByConfig, rc)
		po.FunctionalTotal += rc.Functional
	}
	st.FoldCloudMetrics()
	telemetry.Emit(st.opts.Progress, telemetry.Event{
		Scope:   "resilience",
		ID:      p.Name,
		Detail:  fmt.Sprintf("%d/%d device-runs functional", po.FunctionalTotal, len(st.Stacks)*len(Configs)),
		Elapsed: st.Clock.Now().Sub(began),
	})
	return po, nil
}
