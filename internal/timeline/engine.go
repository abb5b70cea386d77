package timeline

import (
	"context"
	"fmt"
	"time"

	"v6lab/internal/device"
	"v6lab/internal/experiment"
	"v6lab/internal/fleet"
	"v6lab/internal/pool"
	"v6lab/internal/router"
	"v6lab/internal/splitmix"
	"v6lab/internal/telemetry"
	"v6lab/internal/world"
)

// Protocol timers the event schedule is built from. They mirror what the
// router's dnsmasq hands out: DHCPv4 leases of 3600 s (renew at T1 =
// lease/2), DHCPv6 IA_NA preferred lifetimes of 3600 s, and RAs with an
// 1800 s router lifetime.
const (
	renewEvery     = 1800 * time.Second
	renewRetryGap  = 60 * time.Second
	maxRenewRetry  = 2
	routerLifetime = 1800 * time.Second
	v4LeaseValid   = 3600 * time.Second
)

// evKind enumerates the scheduled event types.
type evKind uint8

const (
	evRA evKind = iota
	evBurst
	evSleep
	evWake
	evRenew4
	evRenew6
	evPowerCycle
	evRotate
)

// event is one scheduled occurrence. Ordering is (at, seq): seq is the
// creation order, so simultaneous events fire in the deterministic order
// they were scheduled — never in map or heap-internal order.
type event struct {
	at   time.Time
	seq  uint64
	kind evKind
	dev  int // device index, -1 for home-level events
	aux  int // retry counter for renewals
}

// evHeap is a plain binary min-heap of events keyed by (at, seq).
type evHeap struct{ a []event }

func (h *evHeap) len() int { return len(h.a) }

func (h *evHeap) less(i, j int) bool {
	if !h.a[i].at.Equal(h.a[j].at) {
		return h.a[i].at.Before(h.a[j].at)
	}
	return h.a[i].seq < h.a[j].seq
}

func (h *evHeap) push(e event) {
	h.a = append(h.a, e)
	for i := len(h.a) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.a[i], h.a[parent] = h.a[parent], h.a[i]
		i = parent
	}
}

func (h *evHeap) pop() event {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.a) && h.less(l, small) {
			small = l
		}
		if r < len(h.a) && h.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
	return top
}

// homeEngine drives one home's serial event queue over the horizon.
type homeEngine struct {
	cfg      Config
	st       *experiment.Study
	home     *experiment.Home
	start    time.Time
	deadline time.Time
	res      *HomeTimeline

	h   evHeap
	seq uint64

	sleptAt []time.Time
	devRng  []splitmix.Rand
	homeRng splitmix.Rand

	rotationIdx   int
	rotationAt    time.Time
	pendingReaddr bool
}

func (e *homeEngine) push(at time.Time, kind evKind, dev, aux int) {
	if !at.Before(e.deadline) {
		return
	}
	e.seq++
	e.h.push(event{at: at, seq: e.seq, kind: kind, dev: dev, aux: aux})
}

// runHome builds and runs one fully self-contained home over the horizon.
func runHome(cfg Config, reg []*device.Profile, spec fleet.HomeSpec, scratch *experiment.Scratch) (*HomeTimeline, error) {
	ec, ok := experiment.ConfigByID(spec.ConfigID)
	if !ok {
		return nil, fmt.Errorf("unknown connectivity config %q", spec.ConfigID)
	}
	st := experiment.NewStudyWith(experiment.StudyOptions{
		World:           world.Build(spec.Profiles(reg)),
		Scratch:         scratch,
		MaxFramesPerRun: cfg.MaxFramesPerDrain,
		Faults:          cfg.Impairments,
		Capture:         experiment.CaptureNone,
		Telemetry:       cfg.Telemetry,
	})
	// A long-horizon impairment is sub-seeded per home, so homes see
	// different (but reproducible) frame fates from one profile seed.
	home := st.NewHome(ec, nil, fmt.Sprintf("timeline-home-%d", spec.Index))

	e := &homeEngine{
		cfg:     cfg,
		st:      st,
		home:    home,
		start:   st.Clock.Now(),
		res:     &HomeTimeline{Spec: spec},
		sleptAt: make([]time.Time, len(st.Stacks)),
		devRng:  make([]splitmix.Rand, len(st.Stacks)),
		homeRng: splitmix.New(cfg.Seed ^ (uint64(spec.Index)+1)*0xd1342543de82ef95),
	}
	e.deadline = e.start.Add(cfg.Horizon)
	days := int((cfg.Horizon + 24*time.Hour - 1) / (24 * time.Hour))
	e.res.Days = make([]DayStat, days)

	// Boot the way a single experiment does, then the event loop takes
	// over.
	if err := home.Boot(); err != nil {
		return nil, err
	}
	e.schedule()
	if err := e.loop(); err != nil {
		return nil, err
	}
	e.res.FramesDelivered = home.Net.Delivered()
	st.FoldCloudMetrics()
	return e.res, nil
}

// schedule seeds the event queue: everything below is derived from
// (seed, home index, device index) alone, in device order, so the queue's
// contents are independent of anything another home (or worker) does.
func (e *homeEngine) schedule() {
	v6 := e.home.Config.Router.IPv6
	if v6 {
		e.push(e.start.Add(e.cfg.RAInterval), evRA, -1, 0)
		if e.cfg.RotationEvery > 0 {
			for k := 1; ; k++ {
				jitter := time.Duration(e.homeRng.Intn(3600))*time.Second - 30*time.Minute
				at := e.start.Add(time.Duration(k)*e.cfg.RotationEvery + jitter)
				if !at.Before(e.deadline) {
					break
				}
				e.push(at, evRotate, -1, 0)
			}
		}
	}
	day0 := e.start.Truncate(24 * time.Hour)
	days := int(e.cfg.Horizon/(24*time.Hour)) + 2
	for i, s := range e.st.Stacks {
		// Seeded independently per (home, device), so event schedules
		// never correlate with population sampling.
		e.devRng[i] = splitmix.New(e.cfg.Seed ^ (uint64(e.res.Spec.Index)+1)*0xa0761d6478bd642f ^ (uint64(i)+1)*0xe7037ed1a0b428db)
		r := &e.devRng[i]
		shape := shapeFor(s.Prof.Category)
		for d := 0; d < days; d++ {
			base := day0.Add(time.Duration(d) * 24 * time.Hour)
			for k := 0; k < shape.burstsPerDay; k++ {
				at := base.Add(time.Duration(pickHour(r, &shape.hours))*time.Hour +
					time.Duration(r.Intn(3600))*time.Second)
				if at.Before(e.start) {
					continue
				}
				e.push(at, evBurst, i, 0)
			}
		}
		if shape.sleeper {
			e.push(e.start.Add(durBetween(r, shape.awakeMin, shape.awakeMax)), evSleep, i, 0)
		}
		// Renewal timers start one lease-half after boot, staggered so a
		// home's devices don't all renew in the same instant.
		stagger := time.Duration(r.Intn(600)) * time.Second
		if e.home.Config.Mode != device.ModeV6Only {
			e.push(e.start.Add(renewEvery+stagger), evRenew4, i, 0)
		}
		if v6 && e.home.Config.Router.StatefulDHCPv6 && s.Prof.StatefulDHCPv6 {
			e.push(e.start.Add(renewEvery+stagger+7*time.Second), evRenew6, i, 0)
		}
		e.push(e.start.Add(durBetween(r, 24*time.Hour, 96*time.Hour)), evPowerCycle, i, 0)
	}
}

// loop pops events in (time, seq) order until the horizon is reached.
func (e *homeEngine) loop() error {
	for e.h.len() > 0 {
		ev := e.h.pop()
		if !ev.at.Before(e.deadline) {
			break
		}
		e.st.Clock.AdvanceTo(ev.at)
		if err := e.handle(ev); err != nil {
			return err
		}
	}
	return nil
}

func (e *homeEngine) handle(ev event) error {
	switch ev.kind {
	case evRA:
		e.home.Router.SendRouterAdvert()
		if err := e.home.Drain(); err != nil {
			return err
		}
		if e.pendingReaddr {
			// The RA just re-ran SLAAC on every awake device; announce the
			// fresh addresses so the router's neighbor table (the WAN reply
			// path) learns them, then record the outage.
			for _, s := range e.st.Stacks {
				if !s.Asleep() {
					s.Announce()
				}
			}
			if err := e.home.Drain(); err != nil {
				return err
			}
			e.checkReaddr()
		}
		e.push(ev.at.Add(e.cfg.RAInterval), evRA, -1, 0)

	case evBurst:
		day := e.dayOf(ev.at)
		s := e.st.Stacks[ev.dev]
		if s.Asleep() {
			day.BurstsAsleep++
			return nil
		}
		day.BurstsAttempted++
		s.RunBurst(e.st.Cloud)
		if err := e.home.Drain(); err != nil {
			return err
		}
		if s.Functional() {
			day.BurstsOK++
		}

	case evSleep:
		s := e.st.Stacks[ev.dev]
		if s.Asleep() {
			return nil
		}
		s.SetAsleep(true)
		e.sleptAt[ev.dev] = ev.at
		e.res.Sleeps++
		shape := shapeFor(s.Prof.Category)
		e.push(ev.at.Add(durBetween(&e.devRng[ev.dev], shape.asleepMin, shape.asleepMax)), evWake, ev.dev, 0)

	case evWake:
		s := e.st.Stacks[ev.dev]
		shape := shapeFor(s.Prof.Category)
		if s.Asleep() {
			s.SetAsleep(false)
			e.res.Wakes++
			slept := ev.at.Sub(e.sleptAt[ev.dev])
			if e.home.Config.Router.IPv6 {
				raExpired := slept > routerLifetime && s.HasRA()
				if raExpired {
					s.LoseRA()
					e.res.RAExpiries++
				}
				if !s.HasRA() {
					// Waking devices solicit instead of waiting out the
					// periodic RA — recovery from expiry and from a
					// renumbering that happened mid-sleep alike.
					s.SolicitRouter()
					if err := e.home.Drain(); err != nil {
						return err
					}
					if s.HasRA() {
						if raExpired {
							e.res.RARecoveries++
						}
						s.Announce()
						if err := e.home.Drain(); err != nil {
							return err
						}
					}
				}
			}
			if slept > v4LeaseValid && s.V4Configured() {
				s.ExpireV4()
				e.res.V4.Expired++
			}
			if e.pendingReaddr {
				e.checkReaddr()
			}
		}
		e.push(ev.at.Add(durBetween(&e.devRng[ev.dev], shape.awakeMin, shape.awakeMax)), evSleep, ev.dev, 0)

	case evRenew4:
		s := e.st.Stacks[ev.dev]
		if s.Asleep() {
			e.push(ev.at.Add(renewEvery), evRenew4, ev.dev, 0)
			return nil
		}
		e.res.V4.Attempts++
		hadLease := s.V4Configured()
		before := s.DHCP4Acks()
		s.RenewV4()
		if err := e.home.Drain(); err != nil {
			return err
		}
		renewed := s.DHCP4Acks() > before
		switch {
		case renewed && !hadLease:
			e.res.V4.Reacquired++
			e.push(ev.at.Add(renewEvery), evRenew4, ev.dev, 0)
		case renewed && ev.aux == 0:
			e.res.V4.Renewed++
			e.push(ev.at.Add(renewEvery), evRenew4, ev.dev, 0)
		case renewed:
			e.res.V4.RenewedRetry++
			e.push(ev.at.Add(renewEvery), evRenew4, ev.dev, 0)
		case !hadLease:
			// The DISCOVER reacquisition path found no server this cycle.
			e.res.V4.Failed++
			e.push(ev.at.Add(renewEvery), evRenew4, ev.dev, 0)
		case ev.aux < maxRenewRetry:
			e.push(ev.at.Add(renewRetryGap), evRenew4, ev.dev, ev.aux+1)
		default:
			e.res.V4.Expired++
			s.ExpireV4()
			e.push(ev.at.Add(renewEvery), evRenew4, ev.dev, 0)
		}

	case evRenew6:
		s := e.st.Stacks[ev.dev]
		if s.Asleep() || !s.StatefulConfigured() {
			e.push(ev.at.Add(renewEvery), evRenew6, ev.dev, 0)
			return nil
		}
		e.res.V6.Attempts++
		before := s.DHCP6Replies()
		s.RenewV6()
		if err := e.home.Drain(); err != nil {
			return err
		}
		switch {
		case s.DHCP6Replies() > before && ev.aux == 0:
			e.res.V6.Renewed++
			e.push(ev.at.Add(renewEvery), evRenew6, ev.dev, 0)
		case s.DHCP6Replies() > before:
			e.res.V6.RenewedRetry++
			e.push(ev.at.Add(renewEvery), evRenew6, ev.dev, 0)
		case ev.aux < maxRenewRetry:
			e.push(ev.at.Add(renewRetryGap), evRenew6, ev.dev, ev.aux+1)
		default:
			e.res.V6.Failed++
			e.push(ev.at.Add(renewEvery), evRenew6, ev.dev, 0)
		}

	case evPowerCycle:
		if e.st.Stacks[ev.dev].Asleep() {
			e.push(ev.at.Add(durBetween(&e.devRng[ev.dev], 12*time.Hour, 24*time.Hour)), evPowerCycle, ev.dev, 0)
			return nil
		}
		if err := e.home.Reboot(ev.dev); err != nil {
			return err
		}
		e.res.PowerCycles++
		if e.pendingReaddr {
			e.checkReaddr()
		}
		e.push(ev.at.Add(durBetween(&e.devRng[ev.dev], 48*time.Hour, 96*time.Hour)), evPowerCycle, ev.dev, 0)

	case evRotate:
		old := e.home.Router.DelegatedPrefix()
		e.rotationIdx++
		next := router.GUAPrefixN(e.rotationIdx)
		e.home.Router.Renumber(next)
		aborted := 0
		for _, s := range e.st.Stacks {
			aborted += s.AbortStaleConns(old)
			s.Renumber(old, next)
		}
		e.res.Rotations = append(e.res.Rotations, Rotation{
			At:           ev.at.Sub(e.start),
			ConnsAborted: aborted,
		})
		e.rotationAt = e.st.Clock.Now()
		e.pendingReaddr = true
	}
	return nil
}

// dayOf returns the DayStat bucket an event time falls into.
func (e *homeEngine) dayOf(at time.Time) *DayStat {
	d := int(at.Sub(e.start) / (24 * time.Hour))
	if d < 0 {
		d = 0
	}
	if d >= len(e.res.Days) {
		d = len(e.res.Days) - 1
	}
	return &e.res.Days[d]
}

// checkReaddr closes out a pending renumbering once any awake device
// holds an address in the new prefix: the recorded outage is the gap from
// the prefix withdrawal to that first re-addressing.
func (e *homeEngine) checkReaddr() {
	cur := e.home.Router.DelegatedPrefix()
	for _, s := range e.st.Stacks {
		if !s.Asleep() && s.HasGUAIn(cur) {
			rot := &e.res.Rotations[len(e.res.Rotations)-1]
			rot.Outage = e.st.Clock.Now().Sub(e.rotationAt)
			rot.Recovered = true
			e.pendingReaddr = false
			return
		}
	}
}

// RunContext runs Homes independent simulated homes over the horizon on a
// bounded worker pool. Results merge in home index order, so the Report
// is byte-identical for any worker count. ctx is checked before each home
// starts; a cancelled timeline returns ctx.Err() with no Report — never a
// partial one.
func RunContext(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("timeline: Horizon must be positive, got %v", cfg.Horizon)
	}
	if cfg.Telemetry != nil {
		cfg.Telemetry.Gauge("timeline", "homes_planned", "Homes scheduled for this timeline run.").Set(int64(cfg.Homes))
	}
	var homesDone, burstsDone *telemetry.Counter
	if cfg.Telemetry != nil {
		homesDone = cfg.Telemetry.Counter("timeline", "homes_completed_total", "Timeline homes simulated to the horizon.")
		burstsDone = cfg.Telemetry.Counter("timeline", "bursts_total", "Workload bursts fired across all timeline homes.")
	}
	// Homes derive from the fleet's default mixes under the timeline seed.
	fc := fleet.Config{Seed: cfg.Seed}
	reg := device.Registry()
	results := make([]*HomeTimeline, cfg.Homes)
	err := pool.Run(ctx, cfg.Homes, cfg.Workers, func(int) func(int) error {
		scratch := experiment.NewScratch()
		return func(i int) error {
			hr, err := runHome(cfg, reg, fc.SpecForIn(reg, i), scratch)
			if err != nil {
				return fmt.Errorf("timeline: home %d: %w", i, err)
			}
			results[i] = hr
			if homesDone != nil {
				homesDone.Inc()
			}
			if burstsDone != nil {
				n := 0
				for _, d := range hr.Days {
					n += d.BurstsAttempted
				}
				burstsDone.Add(uint64(n))
			}
			telemetry.Emit(cfg.Progress, telemetry.Event{
				Scope:  "timeline",
				ID:     fmt.Sprintf("home %d/%d", i+1, cfg.Homes),
				Detail: fmt.Sprintf("%s, %d devices, %d frames", hr.Spec.ConfigID, len(hr.Spec.DeviceIndexes), hr.FramesDelivered),
			})
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	return &Report{Cfg: cfg, Homes: results}, nil
}
