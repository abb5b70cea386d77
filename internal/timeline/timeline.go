// Package timeline runs the testbed over long horizons — days to weeks of
// simulated time — by scheduling events instead of ticking: a per-home
// priority queue of seeded events (diurnal workload bursts, DHCPv4/v6
// lease renewals, RA lifetime expiries, device sleep/wake and power-cycle
// churn, ISP prefix rotations) advances netsim's clock from event to
// event, so a week of simulated time costs only the frames its events
// actually put on the wire.
//
// Every home is derived deterministically from (seed, home index) exactly
// like the fleet's, each home's event queue is strictly serial, and homes
// share no mutable state — so a timeline's report is byte-identical for
// any worker count: results merge in home index order, never completion
// order.
package timeline

import (
	"runtime"
	"time"

	"v6lab/internal/faults"
	"v6lab/internal/fleet"
	"v6lab/internal/telemetry"
)

// Config parameterizes a timeline run. The zero value of every field but
// Horizon selects a default, so Config{Horizon: 7 * 24 * time.Hour} is a
// complete specification.
type Config struct {
	// Horizon is the simulated duration to run; must be positive.
	Horizon time.Duration
	// Homes is the population size; 0 means 100.
	Homes int
	// Workers bounds the worker pool; 0 means GOMAXPROCS.
	Workers int
	// Seed derives every home's spec (from the fleet's default mixes) and
	// event schedule; 0 means 1.
	Seed uint64
	// RotationEvery is the ISP prefix-rotation period; 0 means 60 h
	// (about two flash renumberings per simulated week), negative disables
	// rotations.
	RotationEvery time.Duration
	// RAInterval is the router's periodic advertisement interval; 0 means
	// dnsmasq's 600 s. It bounds re-addressing outages after a rotation.
	RAInterval time.Duration
	// MaxFramesPerDrain bounds the frame deliveries of any one event's
	// drain; 0 means the study default (3,000,000).
	MaxFramesPerDrain int
	// Impairments, when active, installs the PR 3 fault profile on every
	// home as a long-horizon impairment: the link model on the switch and
	// the service-fault schedule (RA/DHCPv6/DNS drops, blackouts) on the
	// router. This is what makes lease renewals *fail*.
	Impairments *faults.Profile
	// Telemetry, when non-nil, instruments every home into the shared
	// registry (commuting adds only — snapshots are worker-count-free).
	Telemetry *telemetry.Registry
	// Progress, when non-nil, receives one event per completed home
	// (completion order — a live stream, not part of the report).
	Progress telemetry.Sink
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.Homes <= 0 {
		c.Homes = 100
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.RotationEvery == 0 {
		c.RotationEvery = 60 * time.Hour
	}
	if c.RAInterval <= 0 {
		c.RAInterval = 600 * time.Second
	}
	if c.MaxFramesPerDrain <= 0 {
		c.MaxFramesPerDrain = 3_000_000
	}
	return c
}

// RenewalFunnel counts lease-renewal outcomes across one home's horizon.
// Every attempt that resolves this cycle lands in exactly one of Renewed,
// RenewedRetry, Reacquired, or Failed; Expired additionally counts leases
// lost without an attempt — a device that slept past its lease wakes up
// expired.
type RenewalFunnel struct {
	// Attempts counts renewal messages sent (first tries and retries).
	Attempts int
	// Renewed counts first-try renewal successes.
	Renewed int
	// RenewedRetry counts renewals that succeeded only after retrying.
	RenewedRetry int
	// Expired counts leases dropped — the retry budget ran out, or the
	// device slept past the lease's valid lifetime.
	Expired int
	// Reacquired counts fresh acquisitions after an expiry.
	Reacquired int
	// Failed counts attempts that produced no lease at all this cycle.
	Failed int
}

func (f *RenewalFunnel) add(o *RenewalFunnel) {
	f.Attempts += o.Attempts
	f.Renewed += o.Renewed
	f.RenewedRetry += o.RenewedRetry
	f.Expired += o.Expired
	f.Reacquired += o.Reacquired
	f.Failed += o.Failed
}

// DayStat is one simulated day's workload outcome for a home.
type DayStat struct {
	// BurstsAttempted counts workload bursts fired on awake devices.
	BurstsAttempted int
	// BurstsOK counts bursts whose device passed its functionality test.
	BurstsOK int
	// BurstsAsleep counts bursts skipped because the device slept.
	BurstsAsleep int
}

// Rotation records one ISP prefix rotation and the re-addressing outage
// it caused.
type Rotation struct {
	// At is the rotation's offset from the timeline start.
	At time.Duration
	// Outage is how long the home had no address in the new prefix;
	// meaningful only when Recovered.
	Outage time.Duration
	// Recovered reports whether any device re-addressed before the
	// horizon ended.
	Recovered bool
	// ConnsAborted counts live flows cut by the prefix withdrawal.
	ConnsAborted int
}

// HomeTimeline is one home's measured long-horizon outcome.
type HomeTimeline struct {
	Spec fleet.HomeSpec

	// Days holds per-day workload stats, day 0 first.
	Days []DayStat

	// V4 and V6 are the DHCP lease-renewal funnels.
	V4, V6 RenewalFunnel

	// RAExpiries counts devices waking past the router lifetime with no
	// default router; RARecoveries counts how many re-armed by soliciting.
	RAExpiries, RARecoveries int

	// Sleeps, Wakes, and PowerCycles count the churn events that fired.
	Sleeps, Wakes, PowerCycles int

	// Rotations lists the home's prefix rotations in order.
	Rotations []Rotation

	// FramesDelivered counts L2 deliveries over the whole horizon.
	FramesDelivered int
}

// Report is a completed timeline run: per-home results in home index
// order plus the resolved configuration that produced them.
type Report struct {
	Cfg   Config
	Homes []*HomeTimeline
}

// Totals aggregates the population's outcomes; the renderer and tests
// consume it instead of re-walking homes.
type Totals struct {
	Homes, Devices int
	Days           []DayStat
	V4, V6         RenewalFunnel
	RAExpiries     int
	RARecoveries   int
	Sleeps, Wakes  int
	PowerCycles    int
	Rotations      int
	Recovered      int
	OutageTotal    time.Duration
	OutageMax      time.Duration
	ConnsAborted   int
	Frames         int
}

// Totals folds every home into population totals.
func (r *Report) Totals() Totals {
	days := int((r.Cfg.Horizon + 24*time.Hour - 1) / (24 * time.Hour))
	t := Totals{Homes: len(r.Homes), Days: make([]DayStat, days)}
	for _, h := range r.Homes {
		t.Devices += len(h.Spec.DeviceIndexes)
		for d, ds := range h.Days {
			if d < len(t.Days) {
				t.Days[d].BurstsAttempted += ds.BurstsAttempted
				t.Days[d].BurstsOK += ds.BurstsOK
				t.Days[d].BurstsAsleep += ds.BurstsAsleep
			}
		}
		t.V4.add(&h.V4)
		t.V6.add(&h.V6)
		t.RAExpiries += h.RAExpiries
		t.RARecoveries += h.RARecoveries
		t.Sleeps += h.Sleeps
		t.Wakes += h.Wakes
		t.PowerCycles += h.PowerCycles
		t.Frames += h.FramesDelivered
		for _, rot := range h.Rotations {
			t.Rotations++
			t.ConnsAborted += rot.ConnsAborted
			if rot.Recovered {
				t.Recovered++
				t.OutageTotal += rot.Outage
				if rot.Outage > t.OutageMax {
					t.OutageMax = rot.Outage
				}
			}
		}
	}
	return t
}

// SimDays reports the horizon in fractional simulated days.
func (r *Report) SimDays() float64 {
	return r.Cfg.Horizon.Hours() / 24
}
