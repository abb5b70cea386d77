package experiment

import (
	"context"
	"fmt"
	"sync"

	"v6lab/internal/faults"
	"v6lab/internal/telemetry"
	"v6lab/internal/world"
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

// RunResilience re-runs the Table 2 connectivity grid under each fault
// profile (faults.Grid() when profiles is empty) and reports per-profile
// functionality and failure modes. Each profile gets a fresh, isolated
// study built from opts, so impairment in one profile cannot leak state
// into another; the whole experiment is deterministic in (opts, profiles).
//
// When opts.Workers > 1, profiles run concurrently on a bounded pool —
// each profile's study is already fully isolated, so the grid is
// embarrassingly parallel at the profile level — and the report lists
// them in the order given, identical to the serial run. (Within a
// profile the experiments stay serial: faults make the DHCPv4 XID chain
// order-dependent; see runConnectivity.)
func RunResilience(opts StudyOptions, profiles ...faults.Profile) (*ResilienceReport, error) {
	return RunResilienceContext(context.Background(), opts, profiles...)
}

// RunResilienceContext is RunResilience with cancellation: ctx is checked
// before each profile's grid, and a cancelled run returns ctx.Err() with
// no report.
func RunResilienceContext(ctx context.Context, opts StudyOptions, profiles ...faults.Profile) (*ResilienceReport, error) {
	if len(profiles) == 0 {
		profiles = faults.Grid()
	}
	// The grid reads stack and router state (failure stages, drop and
	// retransmit counters), never frames, so the default capture policy
	// here is none: no Capture is materialized and no analysis tap runs.
	// Callers that do want buffered runs pass CaptureFull explicitly.
	if opts.Capture == CaptureDefault {
		opts.Capture = CaptureNone
	}
	// One immutable world for the whole grid: every profile's study shares
	// the population, plans, and primed cloud registry, rebuilding only
	// its own stacks. Without a shared one, the grid runs the full registry.
	if opts.World == nil {
		opts.World = world.Build(nil)
	}
	rep := &ResilienceReport{Profiles: make([]*ResilienceProfile, len(profiles))}
	workers := opts.Workers
	if workers > len(profiles) {
		workers = len(profiles)
	}
	if workers <= 1 {
		if opts.Scratch == nil {
			opts.Scratch = NewScratch()
		}
		for i, p := range profiles {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			po, devices, err := runResilienceProfile(opts, p)
			if err != nil {
				return nil, err
			}
			rep.Profiles[i] = po
			rep.Devices = devices
		}
		return rep, nil
	}
	errs := make([]error, len(profiles))
	devices := make([]int, len(profiles))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Scratch is single-threaded: each worker gets its own,
			// whatever the caller passed in opts.
			wopts := opts
			wopts.Scratch = NewScratch()
			for i := range jobs {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				rep.Profiles[i], devices[i], errs[i] = runResilienceProfile(wopts, profiles[i])
			}
		}()
	}
	for i := range profiles {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, err
		}
		rep.Devices = devices[i]
	}
	return rep, nil
}

// runResilienceProfile runs the full Table 2 grid under one fault profile
// on a study of its own.
func runResilienceProfile(opts StudyOptions, p faults.Profile) (*ResilienceProfile, int, error) {
	o := opts
	fp := p
	o.Faults = &fp
	st := NewStudyWith(o)
	began := st.Clock.Now()
	po := &ResilienceProfile{Profile: p}
	for _, cfg := range Configs {
		res, err := st.RunExperiment(cfg)
		if err != nil {
			return nil, 0, fmt.Errorf("resilience %s/%s: %w", p.Name, cfg.ID, err)
		}
		rc := ResilienceConfig{
			ID:              cfg.ID,
			Devices:         len(st.Stacks),
			Failures:        map[string]int{},
			FramesDelivered: res.FramesDelivered,
			FramesDropped:   res.FramesDropped,
			Retransmits:     res.Retransmits,
			PTBSent:         res.PTBSent,
			ServiceDrops:    res.ServiceDrops,
		}
		// Diagnose while the stacks still hold this experiment's state.
		for _, s := range st.Stacks {
			stage := s.FailureStage()
			rc.Failures[stage]++
			if stage == "ok" {
				rc.Functional++
			} else {
				rc.FailedDevices = append(rc.FailedDevices, s.Prof.Name)
			}
		}
		po.ByConfig = append(po.ByConfig, rc)
		po.FunctionalTotal += rc.Functional
	}
	st.FoldCloudMetrics()
	telemetry.Emit(st.Progress, telemetry.Event{
		Scope:   "resilience",
		ID:      p.Name,
		Detail:  fmt.Sprintf("%d/%d device-runs functional", po.FunctionalTotal, len(st.Stacks)*len(Configs)),
		Elapsed: st.Clock.Now().Sub(began),
	})
	return po, len(st.Stacks), nil
}
