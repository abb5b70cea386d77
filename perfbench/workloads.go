package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"v6lab"
	"v6lab/internal/telemetry"
	"v6lab/internal/timeline"
)

// Workload sizes. Each names one unit of timed work.
const (
	// workers is the pool size of every untraced unit: the core count of
	// the 2-core hosts the sizes below were chosen on.
	workers = 2
	// fleetHomes is one fleet unit: a default-mix population with the
	// per-home WAN exposure scan.
	fleetHomes = 300
	// timelineHomes and timelineDays are one timeline unit. Three days
	// cover a prefix rotation (every 60 h). Each home's size, config and
	// policy shift its frame mix, so a small population moves every
	// per-frame metric from seed to seed: 100 homes still moved them by
	// 15 to 20 % (IQR over ten seeds).
	timelineHomes = 300
	timelineDays  = 3
	// warmHomes sizes the untimed warm-up fleet and timeline (one day).
	warmHomes = 10
)

// Run shape of the end-to-end measurement.
const (
	// setups is how many times a run builds and warms its workload;
	// setup_s is their median, so one slow set-up does not move it.
	setups = 5
	// minUnits is the fewest timed units a run makes, however short
	// --seconds is.
	minUnits = 3
)

// recorded holds each workload's output sha256 at the default seed, 1: the
// study's FullReport (the hash the repository's tests pin; the study does
// not depend on the seed), and the fleet and timeline report artifacts.
var recorded = map[string]string{
	"study":    "96e255d3365ad1b4619211d1763277de6983cc9a56a8314294a5ff959235f365",
	"fleet":    "972d7fa5fd62b04cb835dc3f1f850d12005ab8b450e5d46910502fd83b430db0",
	"timeline": "41f087880245f551db8adcf82a9f382a7e6cac839ef3519d3d95c3996ac00175",
}

// recordedDigest is the digest a unit's output must match, or "" when none
// is recorded for this seed.
func recordedDigest(workload string, seed uint64) string {
	if workload == "study" || seed == 1 {
		return recorded[workload]
	}
	return ""
}

// session is one workload's warm state.
type session struct {
	// work is the units of work one unit performs: 1 study, fleetHomes
	// homes, or timelineHomes×timelineDays simulated home-days.
	work float64
	// run performs one timed unit.
	run func() error
	// artifact renders the last unit's checked output, untimed.
	artifact func() string
	// counted runs one unit with telemetry on and returns its artifact and
	// the frames it delivered.
	counted func() (string, float64, error)
}

// workload is one named benchmark input.
type workload struct {
	name string
	// open builds the session and runs its untimed warm-up unit: the
	// set-up setup_s times.
	open func(seed uint64) (*session, error)
	// trace runs the traced per-layer view for about budget.
	trace func(seed uint64, budget time.Duration, log io.Writer) (*traceReport, error)
}

var workloads = map[string]workload{
	"study":    {name: "study", open: openStudy, trace: traceStudy},
	"fleet":    {name: "fleet", open: openFleet, trace: traceFleet},
	"timeline": {name: "timeline", open: openTimeline, trace: traceTimeline},
}

// switched reads the live delivered-frame counter of an instrumented run.
func switched(reg *telemetry.Registry) float64 {
	return pointTotals(reg)["netsim_frames_switched_total"]
}

// pointTotals sums a registry's snapshot by metric name (labelled
// families fold into one total).
func pointTotals(reg *telemetry.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, p := range reg.Snapshot(time.Time{}).Points {
		out[p.Name] += float64(p.Value)
	}
	return out
}

// openStudy: one unit is v6lab.New over a warm Env, Run, FullReport.
func openStudy(seed uint64) (*session, error) {
	env := v6lab.NewEnv()
	newLab := func(opts ...v6lab.Option) *v6lab.Lab {
		base := []v6lab.Option{v6lab.WithEnv(env), v6lab.WithWorkers(workers), v6lab.WithSeed(seed)}
		return v6lab.New(append(base, opts...)...)
	}
	var rep string
	s := &session{work: 1}
	s.run = func() error {
		lab := newLab()
		if err := lab.Run(); err != nil {
			return err
		}
		rep = lab.FullReport()
		return nil
	}
	s.artifact = func() string { return rep }
	s.counted = func() (string, float64, error) {
		reg := telemetry.NewRegistry()
		lab := newLab(v6lab.WithTelemetry(reg))
		if err := lab.Run(); err != nil {
			return "", 0, err
		}
		return lab.FullReport(), switched(reg), nil
	}
	// The warm-up fills the Env's pool and the switch arenas.
	return s, s.run()
}

// openFleet: one unit is Fleet(fleetHomes) with the default mixes.
func openFleet(seed uint64) (*session, error) {
	part := func(n int) v6lab.RunPart { return v6lab.Fleet(n, v6lab.Seed(seed)) }
	lab := v6lab.New(v6lab.WithWorkers(workers))
	s := &session{work: fleetHomes}
	s.run = func() error { return lab.Run(part(fleetHomes)) }
	s.artifact = func() string { return lab.Report(v6lab.FleetStudy) }
	s.counted = func() (string, float64, error) {
		reg := telemetry.NewRegistry()
		l := v6lab.New(v6lab.WithWorkers(workers), v6lab.WithTelemetry(reg))
		if err := l.Run(part(fleetHomes)); err != nil {
			return "", 0, err
		}
		return l.Report(v6lab.FleetStudy), switched(reg), nil
	}
	return s, lab.Run(part(warmHomes))
}

// timelinePart is a Timeline over days × homes.
func timelinePart(seed uint64, days, homes int, opts ...v6lab.PartOption) v6lab.RunPart {
	cfg := v6lab.TimelineConfig(timeline.Config{Homes: homes, Seed: seed})
	return v6lab.Timeline(v6lab.Days(days), append([]v6lab.PartOption{cfg}, opts...)...)
}

// openTimeline: one unit is a timelineDays × timelineHomes timeline.
func openTimeline(seed uint64) (*session, error) {
	lab := v6lab.New(v6lab.WithWorkers(workers))
	s := &session{work: timelineHomes * timelineDays}
	s.run = func() error { return lab.Run(timelinePart(seed, timelineDays, timelineHomes)) }
	s.artifact = func() string { return lab.Report(v6lab.TimelineStudy) }
	s.counted = func() (string, float64, error) {
		// The timeline's switch is not instrumented; its report counts
		// every delivered frame instead.
		l := v6lab.New(v6lab.WithWorkers(workers), v6lab.WithTelemetry(telemetry.NewRegistry()))
		if err := l.Run(timelinePart(seed, timelineDays, timelineHomes)); err != nil {
			return "", 0, err
		}
		return l.Report(v6lab.TimelineStudy), float64(l.TL.Totals().Frames), nil
	}
	return s, lab.Run(timelinePart(seed, 1, warmHomes))
}

// checker counts attempted and failed checks. Every unit's output must
// hash to the same digest within a run and, where one is recorded, to the
// recorded digest.
type checker struct {
	log               io.Writer
	name              string
	want, got         string
	attempted, failed int
}

func newChecker(log io.Writer, workload string, seed uint64) *checker {
	return &checker{log: log, name: workload, want: recordedDigest(workload, seed)}
}

// check records one check's outcome and reports whether it passed.
func (c *checker) check(err error) bool {
	c.attempted++
	if err != nil {
		c.failed++
		fmt.Fprintf(c.log, "%s: check %d failed: %v\n", c.name, c.attempted, err)
		return false
	}
	return true
}

// unit checks one unit: it must not have failed, and its artifact (rendered
// only when it did not) must match the run's digest.
func (c *checker) unit(err error, artifact func() string) bool {
	if err == nil {
		err = c.match(digestOf(artifact()))
	}
	return c.check(err)
}

func (c *checker) match(d string) error {
	if c.want != "" && d != c.want {
		return fmt.Errorf("output sha256 %s, recorded %s", d, c.want)
	}
	if c.got == "" {
		c.got = d
		fmt.Fprintf(c.log, "%s: output sha256 %s\n", c.name, d)
		return nil
	}
	if d != c.got {
		return fmt.Errorf("output sha256 %s differs from this run's first unit %s", d, c.got)
	}
	return nil
}

func (c *checker) result(metrics map[string]metric) result {
	return result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: metrics}
}

// endToEnd lists the end-to-end metrics in report order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"units_per_s", "1/s"},
	{"frames_per_s", "1/s"},
	{"cpu_us_per_frame", "us"},
	{"allocs_per_frame", "allocs/frame"},
	{"alloc_bytes_per_frame", "B/frame"},
	{"peak_rss_mb", "MB"},
}

// unitNames says what units_per_s counts on each workload.
var unitNames = map[string]string{"study": "studies_per_s", "fleet": "homes_per_s", "timeline": "simdays_per_s"}

// measured runs the untraced end-to-end measurement of one workload.
func measured(o options, log io.Writer) (result, error) {
	w := workloads[o.workload]
	var s *session
	setupS := make([]float64, 0, setups)
	for i := 0; i < setups; i++ {
		s = nil // release the previous session before timing the next
		runtime.GC()
		t0 := time.Now()
		var err error
		s, err = w.open(o.seed)
		setupS = append(setupS, time.Since(t0).Seconds())
		if err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
		}
	}
	runtime.GC()

	chk := newChecker(log, w.name, o.seed)
	var walls, cpus, mallocs, bytes []float64
	deadline := time.Now().Add(o.seconds)
	for chk.attempted < minUnits || time.Now().Before(deadline) {
		smp, err := measure(s.run)
		if chk.unit(err, s.artifact) {
			walls = append(walls, smp.wall.Seconds())
			cpus = append(cpus, smp.cpu.Seconds())
			mallocs = append(mallocs, float64(smp.mallocs))
			bytes = append(bytes, float64(smp.bytes))
		}
	}
	// One instrumented unit, untimed: it supplies the frames a unit
	// delivers (fixed for a seed), and telemetry must not change a byte of
	// the output.
	art, frames, err := s.counted()
	if err == nil && frames <= 0 {
		err = fmt.Errorf("instrumented unit delivered no frames")
	}
	chk.unit(err, func() string { return art })

	// Throughput is taken over the unit's CPU time spread across its
	// workers: the wall time the unit takes on otherwise idle cores. Other
	// tenants' load on a shared virtual machine stretches wall time by up
	// to 30 % for minutes at a time; it barely moves CPU time.
	busy := median(cpus) / workers
	m := map[string]metric{
		"setup_s":               {median(setupS), "s"},
		"units_per_s":           {ratio(s.work, busy), "1/s"},
		"frames_per_s":          {ratio(frames, busy), "1/s"},
		"cpu_us_per_frame":      {ratio(median(cpus)*1e6, frames), "us"},
		"allocs_per_frame":      {ratio(median(mallocs), frames), "allocs/frame"},
		"alloc_bytes_per_frame": {ratio(median(bytes), frames), "B/frame"},
		"peak_rss_mb":           {peakRSSMB(), "MB"},
	}
	wall := median(walls)
	fmt.Fprintf(log, "%s: %d timed units, wall min %.4fs p25 %.4fs median %.4fs p75 %.4fs max %.4fs (%s %.4g by wall time), CPU %.4fs/unit, %.0f frames/unit, %s %.4g, error_rate %.4g\n",
		w.name, len(walls), percentile(walls, 0), percentile(walls, 25), wall, percentile(walls, 75), percentile(walls, 100),
		unitNames[w.name], ratio(s.work, wall), median(cpus), frames, unitNames[w.name], m["units_per_s"].Value,
		ratio(float64(chk.failed), float64(chk.attempted)))
	for _, e := range endToEnd {
		fmt.Fprintf(log, "  %-22s %14.6g %s\n", e.name, m[e.name].Value, e.unit)
	}
	return chk.result(m), nil
}
