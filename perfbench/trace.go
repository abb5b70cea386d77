package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"v6lab"
	"v6lab/internal/analysis"
	"v6lab/internal/device"
	"v6lab/internal/experiment"
	"v6lab/internal/firewall"
	"v6lab/internal/fleet"
	"v6lab/internal/telemetry"
	"v6lab/internal/timeline"
	"v6lab/internal/world"
)

// The traced run. Every unit runs serially (one worker) with telemetry on,
// and the benchmark times its own calls into each layer's public functions
// (spans); nothing inside the program is instrumented. Its untraced serial
// twin runs alongside, for trace.overhead. The replay ledger (replay.go)
// then splits the frame path layer by layer.

// recordedHomes is how many fleet or timeline homes are re-run with every
// frame buffered for the replay ledger.
const recordedHomes = 24

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// countMetrics maps per-layer work counts onto telemetry points.
var countMetrics = []struct{ metric, point string }{
	{"count.frames_switched", "netsim_frames_switched_total"},
	{"count.forwarded_v4", "router_forwarded_v4_total"},
	{"count.forwarded_v6", "router_forwarded_v6_total"},
	{"count.nat44_translations", "router_nat44_translations_total"},
	{"count.firewall_passed_out", "firewall_passed_out_total"},
	{"count.firewall_dropped_in", "firewall_dropped_in_total"},
	{"count.conntrack_hits", "conntrack_hits_total"},
	{"count.conntrack_misses", "conntrack_misses_total"},
	{"count.cloud_queries", "cloud_queries_total"},
	{"count.frames_streamed", "analysis_frames_streamed_total"},
	{"count.frames_buffered", "analysis_frames_buffered_total"},
}

// traceReport is a traced run's live view of one workload: medians over
// its iterations, plus the frames the replay ledger re-runs.
type traceReport struct {
	// unitMS and plainMS are the serial unit's wall time traced and
	// untraced.
	unitMS, plainMS float64
	// spans maps span name to milliseconds per unit; perHome to per-home
	// milliseconds (fleet, timeline).
	spans   map[string]float64
	perHome map[string][]float64
	// nonFrameMS is the unit's time in spans that exchange no frames;
	// frameMS the time the ledger's frame-path layers account for.
	nonFrameMS, frameMS float64
	// counts holds one unit's telemetry totals by point name; liveFrames
	// the frames one unit delivers.
	counts     map[string]float64
	liveFrames float64
	recs       []*recording
	// recSwitched is the live netsim_frames_switched_total of the runs
	// the recordings came from.
	recSwitched float64
	chk         *checker
	notes       []string
}

// spans times the benchmark's calls into the program's layers.
type spans struct {
	total   map[string]time.Duration
	perHome map[string][]float64
}

func newSpans() *spans {
	return &spans{total: map[string]time.Duration{}, perHome: map[string][]float64{}}
}

// time runs f as span name.
func (s *spans) time(name string, f func() error) error {
	t0 := time.Now()
	err := f()
	s.total[name] += time.Since(t0)
	return err
}

// home runs f as span name of one home, keeping the home's sample.
func (s *spans) home(name string, f func() error) error {
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	s.total[name] += d
	s.perHome[name] = append(s.perHome[name], ms(d))
	return err
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// iterations collects per-iteration values by name.
type iterations map[string][]float64

func (it iterations) add(name string, v float64) { it[name] = append(it[name], v) }

// finish fills a report's timings from its iterations' medians.
func (tr *traceReport) finish(it iterations, sp *spans, frameSpans, otherSpans []string) {
	tr.unitMS = median(it["unit"])
	tr.plainMS = median(it["plain"])
	tr.spans = map[string]float64{}
	for name := range sp.total {
		tr.spans[name] = median(it["span."+name])
	}
	tr.perHome = sp.perHome
	for _, name := range frameSpans {
		tr.frameMS += tr.spans[name]
	}
	for _, name := range otherSpans {
		tr.nonFrameMS += tr.spans[name]
	}
}

func (it iterations) addSpans(sp *spans) {
	for name, d := range sp.total {
		it.add("span."+name, ms(d))
	}
}

// studyTrace is one traced study unit.
type studyTrace struct {
	wall        time.Duration
	report      string
	sp          *spans
	counts      map[string]float64
	st          *experiment.Study
	recSwitched float64
}

// traceStudy repeats the study unit serially, untraced through the public
// API and traced through studyUnit, for about budget.
func traceStudy(seed uint64, budget time.Duration, log io.Writer) (*traceReport, error) {
	env := v6lab.NewEnv()
	if err := v6lab.New(v6lab.WithEnv(env)).Run(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	tr := &traceReport{chk: newChecker(log, "study", seed)}
	it := iterations{}
	var last *studyTrace
	deadline := time.Now().Add(budget)
	for last == nil || time.Now().Before(deadline) {
		var plain string
		ps, err := measure(func() error {
			lab := v6lab.New(v6lab.WithEnv(env), v6lab.WithWorkers(1), v6lab.WithSeed(seed))
			if err := lab.Run(); err != nil {
				return err
			}
			plain = lab.FullReport()
			return nil
		})
		if !tr.chk.unit(err, func() string { return plain }) {
			break
		}
		u, err := studyUnit()
		if !tr.chk.unit(err, func() string { return u.report }) {
			break
		}
		it.add("plain", ms(ps.wall))
		it.add("unit", ms(u.wall))
		it.addSpans(u.sp)
		last = u
	}
	if last == nil {
		return nil, fmt.Errorf("no traced study unit completed")
	}
	// world.build runs before the unit: the untraced workload builds its
	// World once, in NewEnv.
	tr.finish(it, last.sp,
		[]string{"experiment.run", "experiment.portscan"},
		[]string{"experiment.new_study", "experiment.active_dns", "analysis.from_study", "report.render"})
	tr.counts = last.counts
	tr.liveFrames = last.counts["netsim_frames_switched_total"]
	tr.recSwitched = last.recSwitched
	for _, res := range last.st.Results {
		tr.recs = append(tr.recs, newRecording(res.Config, last.st.World, res))
	}
	return tr, nil
}

// studyUnit drives the study the way Lab.Run does at WithWorkers(1) over a
// shared World — NewStudyWith, the six RunExperiment calls, RunActiveDNS,
// RunPortScan, analysis.FromStudy, FullReport — timing each call.
func studyUnit() (*studyTrace, error) {
	reg := telemetry.NewRegistry()
	u := &studyTrace{sp: newSpans()}
	sp := u.sp
	var w *world.World
	sp.time("world.build", func() error { w = world.Build(nil); return nil })
	t0 := time.Now()
	var st *experiment.Study
	sp.time("experiment.new_study", func() error {
		st = experiment.NewStudyWith(experiment.StudyOptions{
			World: w, Observe: analysis.Streaming(), Workers: 1, Telemetry: reg,
		})
		return nil
	})
	err := sp.time("experiment.run", func() error {
		for _, cfg := range experiment.Configs {
			res, err := st.RunExperiment(cfg)
			if err != nil {
				return fmt.Errorf("experiment %s: %w", cfg.ID, err)
			}
			st.Results = append(st.Results, res)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	u.recSwitched = switched(reg)
	sp.time("experiment.active_dns", func() error { st.RunActiveDNS(); return nil })
	err = sp.time("experiment.portscan", func() error {
		var err error
		st.Scan, err = st.RunPortScan()
		return err
	})
	if err != nil {
		return nil, err
	}
	st.FoldCloudMetrics()
	var ds *analysis.Dataset
	sp.time("analysis.from_study", func() error { ds = analysis.FromStudy(st); return nil })
	sp.time("report.render", func() error {
		u.report = (&v6lab.Lab{Study: st, Data: ds}).FullReport()
		return nil
	})
	u.wall = time.Since(t0)
	u.counts = pointTotals(reg)
	u.st = st
	return u, nil
}

// homeCount is one fleet home's frame and functional-device counts.
type homeCount struct{ frames, functional int }

// fleetTrace is one traced fleet unit.
type fleetTrace struct {
	wall   time.Duration
	sp     *spans
	counts map[string]float64
	homes  []homeCount
}

// traceFleet repeats the fleet unit serially, untraced through the public
// API and traced through fleetUnit, for about budget.
func traceFleet(seed uint64, budget time.Duration, log io.Writer) (*traceReport, error) {
	tr := &traceReport{chk: newChecker(log, "fleet", seed)}
	it := iterations{}
	var last *fleetTrace
	deadline := time.Now().Add(budget)
	for last == nil || time.Now().Before(deadline) {
		lab := v6lab.New(v6lab.WithWorkers(1))
		ps, err := measure(func() error {
			return lab.Run(v6lab.Fleet(fleetHomes, v6lab.Seed(seed), v6lab.Workers(1)))
		})
		if !tr.chk.unit(err, func() string { return lab.Report(v6lab.FleetStudy) }) {
			break
		}
		u, err := fleetUnit(seed)
		if err == nil {
			err = sameHomes(lab.FleetPop, u.homes)
		}
		if !tr.chk.check(err) {
			break
		}
		it.add("plain", ms(ps.wall))
		it.add("unit", ms(u.wall))
		it.addSpans(u.sp)
		last = u
	}
	if last == nil {
		return nil, fmt.Errorf("no traced fleet unit completed")
	}
	tr.finish(it, last.sp,
		[]string{"experiment.run", "experiment.exposure"},
		[]string{"fleet.spec_for", "world.build", "experiment.new_study", "analysis.from_study"})
	tr.counts = last.counts
	tr.liveFrames = last.counts["netsim_frames_switched_total"]
	var err error
	tr.recs, tr.recSwitched, err = recordHomes(homeSpecs(fleet.Config{Seed: seed}, recordedHomes))
	return tr, err
}

// homeSpecs derives the first n homes of a population, the homes the fleet
// or the timeline runs for the config's seed.
func homeSpecs(cfg fleet.Config, n int) []fleet.HomeSpec {
	reg := device.Registry()
	specs := make([]fleet.HomeSpec, n)
	for i := range specs {
		specs[i] = cfg.SpecForIn(reg, i)
	}
	return specs
}

// fleetUnit re-drives the fleet's per-home lifecycle serially through the
// public calls each home makes — SpecFor, world.Build, NewStudyWith,
// RunExperiment, analysis.FromStudy with the per-home DAD and EUI-64
// derivations, RunFirewallExposureUnder — timing each per home.
func fleetUnit(seed uint64) (*fleetTrace, error) {
	reg := telemetry.NewRegistry()
	cfg := fleet.Config{Homes: fleetHomes, Seed: seed}
	devReg := device.Registry()
	scratch := experiment.NewScratch()
	u := &fleetTrace{sp: newSpans(), homes: make([]homeCount, fleetHomes)}
	sp := u.sp
	t0 := time.Now()
	for i := 0; i < fleetHomes; i++ {
		var spec fleet.HomeSpec
		sp.home("fleet.spec_for", func() error { spec = cfg.SpecForIn(devReg, i); return nil })
		ec, ok := experiment.ConfigByID(spec.ConfigID)
		if !ok {
			return nil, fmt.Errorf("home %d: unknown config %q", i, spec.ConfigID)
		}
		var w *world.World
		sp.home("world.build", func() error { w = world.Build(profilesOf(devReg, spec)); return nil })
		var st *experiment.Study
		sp.home("experiment.new_study", func() error {
			st = experiment.NewStudyWith(experiment.StudyOptions{
				World: w, Capture: experiment.CaptureNone, Observe: analysis.Streaming(),
				Telemetry: reg, Scratch: scratch,
			})
			return nil
		})
		var res *experiment.RunResult
		err := sp.home("experiment.run", func() error {
			var err error
			res, err = st.RunExperiment(ec)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("home %d: %w", i, err)
		}
		st.Results = append(st.Results, res)
		sp.home("analysis.from_study", func() error {
			ds := analysis.FromStudy(st)
			ds.DADAudit()
			ds.EUI64Exposure()
			return nil
		})
		if ec.Router.IPv6 {
			err := sp.home("experiment.exposure", func() error {
				pol, err := firewall.ByName(spec.Policy)
				if err != nil {
					return err
				}
				if ph, ok := pol.(firewall.Pinhole); ok && len(ph.Rules) == 0 {
					pol = firewall.Pinhole{Rules: experiment.DefaultPinholes(st.Profiles)}
				}
				_, err = st.RunFirewallExposureUnder(ec, []firewall.Policy{pol})
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("home %d exposure: %w", i, err)
			}
		}
		st.FoldCloudMetrics()
		functional := 0
		for _, ok := range res.Functional {
			if ok {
				functional++
			}
		}
		u.homes[i] = homeCount{frames: res.Frames(), functional: functional}
	}
	u.wall = time.Since(t0)
	u.counts = pointTotals(reg)
	return u, nil
}

// sameHomes checks the traced fleet run against the untraced
// Population home by home: without it the spans could time other work.
func sameHomes(pop *fleet.Population, homes []homeCount) error {
	if len(pop.Homes) != len(homes) {
		return fmt.Errorf("traced fleet ran %d homes, untraced %d", len(homes), len(pop.Homes))
	}
	for i, hr := range pop.Homes {
		if got := homes[i]; got.frames != hr.FramesCaptured || got.functional != hr.Functional {
			return fmt.Errorf("home %d: traced %d frames, %d functional; untraced %d frames, %d functional",
				i, got.frames, got.functional, hr.FramesCaptured, hr.Functional)
		}
	}
	return nil
}

// timelineTrace is one traced timeline unit.
type timelineTrace struct {
	wall                   time.Duration
	report                 string
	sp                     *spans
	counts                 map[string]float64
	frames                 float64
	homeFrames, homeEvents []float64
}

// traceTimeline repeats the timeline unit serially, untraced and traced,
// for about budget.
func traceTimeline(seed uint64, budget time.Duration, log io.Writer) (*traceReport, error) {
	tr := &traceReport{chk: newChecker(log, "timeline", seed)}
	it := iterations{}
	var last *timelineTrace
	deadline := time.Now().Add(budget)
	for last == nil || time.Now().Before(deadline) {
		lab := v6lab.New(v6lab.WithWorkers(1))
		ps, err := measure(func() error {
			return lab.Run(timelinePart(seed, timelineDays, timelineHomes, v6lab.Workers(1)))
		})
		if !tr.chk.unit(err, func() string { return lab.Report(v6lab.TimelineStudy) }) {
			break
		}
		u, err := timelineUnit(seed)
		if !tr.chk.unit(err, func() string { return u.report }) {
			break
		}
		it.add("plain", ms(ps.wall))
		it.add("unit", ms(u.wall))
		it.addSpans(u.sp)
		last = u
	}
	if last == nil {
		return nil, fmt.Errorf("no traced timeline unit completed")
	}
	other := []string{"world.build", "experiment.new_study"}
	tr.finish(it, last.sp, nil, other)
	// The home spans hold the event loop; world.build and new_study are
	// timed again outside it on the same specs, so the frame path is the
	// remainder.
	tr.frameMS = tr.spans["timeline.home"] - tr.nonFrameMS
	tr.counts = last.counts
	tr.liveFrames = last.frames
	tr.notes = append(tr.notes,
		fmt.Sprintf("per home: frames p50 %.0f p90 %.0f, events p50 %.0f p90 %.0f",
			percentile(last.homeFrames, 50), percentile(last.homeFrames, 90),
			percentile(last.homeEvents, 50), percentile(last.homeEvents, 90)),
		"ledger rows replay the boot and workload frames of the timeline's own homes; the event-drain frame mix needs in-program tracing")
	var err error
	tr.recs, tr.recSwitched, err = recordHomes(homeSpecs(fleet.Config{Seed: seed}, recordedHomes))
	return tr, err
}

// timelineUnit runs the timeline at one worker with telemetry and a
// progress sink: each home's span runs from the previous home's completion
// event to its own. world.build and experiment.new_study, the first calls
// every timeline home makes, are then timed on the same home specs.
func timelineUnit(seed uint64) (*timelineTrace, error) {
	reg := telemetry.NewRegistry()
	var mu sync.Mutex
	var done []time.Time
	sink := telemetry.FuncSink(func(telemetry.Event) {
		mu.Lock()
		done = append(done, time.Now())
		mu.Unlock()
	})
	lab := v6lab.New(v6lab.WithWorkers(1), v6lab.WithTelemetry(reg), v6lab.WithProgress(sink))
	u := &timelineTrace{sp: newSpans()}
	t0 := time.Now()
	err := lab.Run(timelinePart(seed, timelineDays, timelineHomes, v6lab.Workers(1)))
	u.wall = time.Since(t0)
	if err != nil {
		return nil, err
	}
	prev := t0
	for _, at := range done {
		u.sp.total["timeline.home"] += at.Sub(prev)
		u.sp.perHome["timeline.home"] = append(u.sp.perHome["timeline.home"], ms(at.Sub(prev)))
		prev = at
	}
	u.report = lab.Report(v6lab.TimelineStudy)
	u.counts = pointTotals(reg)
	u.frames = float64(lab.TL.Totals().Frames)
	for _, h := range lab.TL.Homes {
		u.homeFrames = append(u.homeFrames, float64(h.FramesDelivered))
		u.homeEvents = append(u.homeEvents, float64(homeEvents(h)))
	}
	devReg := device.Registry()
	for _, spec := range homeSpecs(fleet.Config{Seed: seed}, timelineHomes) {
		var w *world.World
		u.sp.home("world.build", func() error { w = world.Build(profilesOf(devReg, spec)); return nil })
		u.sp.home("experiment.new_study", func() error {
			experiment.NewStudyWith(experiment.StudyOptions{World: w, Capture: experiment.CaptureNone})
			return nil
		})
	}
	return u, nil
}

// homeEvents counts the scheduled events one timeline home handled.
func homeEvents(h *timeline.HomeTimeline) int {
	n := h.V4.Attempts + h.V6.Attempts + h.Sleeps + h.Wakes + h.PowerCycles + h.RAExpiries + len(h.Rotations)
	for _, d := range h.Days {
		n += d.BurstsAttempted + d.BurstsAsleep
	}
	return n
}

// traced runs the traced per-layer view of one workload.
func traced(o options, log io.Writer) (result, error) {
	w := workloads[o.workload]
	tr, err := w.trace(o.seed, o.seconds, log)
	if err != nil {
		return result{}, err
	}
	led, err := replayLedger(tr.recs)
	if err != nil {
		return result{}, err
	}
	// The recordings must hold exactly the frames the live switch
	// delivered while they were made.
	if led.frames != tr.recSwitched {
		tr.chk.check(fmt.Errorf("replayed %.0f frames, live netsim_frames_switched_total %.0f", led.frames, tr.recSwitched))
	} else {
		tr.chk.check(nil)
	}
	m := perLayerMetrics(tr, led)
	printTrace(log, w.name, tr, led, m)
	if err := writeTrace(o, tr, m); err != nil {
		fmt.Fprintln(log, "perfbench: trace file:", err)
	}
	return tr.chk.result(m), nil
}

// perLayerMetrics scales each replayed layer's cost per frame by the live
// unit's call counts into its share of the traced unit's wall time.
func perLayerMetrics(tr *traceReport, led *ledger) map[string]metric {
	wallNS := tr.unitMS * 1e6
	live := tr.liveFrames
	buffered := tr.counts["analysis_frames_buffered_total"]
	streamed := tr.counts["analysis_frames_streamed_total"]
	fan := led.fanout()
	// Frames entering each layer in the live unit. Every receiving host
	// (and the analysis tap or batch pass) parses a frame once.
	calls := map[string]float64{
		"netsim.deliver":   live,
		"packet.decode":    live*fan + buffered + streamed,
		"device.receive":   live,
		"router.receive":   live,
		"cloud.handle":     live,
		"firewall.track":   live,
		"analysis.observe": buffered + streamed,
		"pcapio.write":     buffered,
	}
	share := map[string]float64{}
	for _, name := range ledgerLayers {
		ns := led.layers[name].nsPerFrame()
		if name == "pcapio.write" {
			ns = led.captureAdd.nsPerFrame() // a live run only buffers; it never writes
		}
		share[name] = ratio(ns*calls[name], wallNS)
	}
	// Coverage adds the non-overlapping parts: spans outside the frame
	// path, the switch, the receiving hosts (whose cost includes their
	// decode, cloud and firewall work), and the delivery tap.
	covered := tr.nonFrameMS*1e6 +
		(share["netsim.deliver"]+share["device.receive"]+share["router.receive"]+share["pcapio.write"])*wallNS
	if streamed > 0 {
		covered += share["analysis.observe"] * wallNS
	}
	m := map[string]metric{
		"trace.overhead":               {ratio(tr.unitMS, tr.plainMS), "ratio"},
		"ledger.coverage":              {ratio(covered, wallNS), "ratio"},
		"span.unit_ms":                 {tr.unitMS, "ms"},
		"span.world.build_ms":          {tr.spans["world.build"], "ms"},
		"span.experiment.new_study_ms": {tr.spans["experiment.new_study"], "ms"},
		"span.frame_path_ms":           {tr.frameMS, "ms"},
		"netsim.fanout":                {fan, "calls/frame"},
	}
	for _, name := range ledgerLayers {
		l := led.layers[name]
		m[name+".ns_per_frame"] = metric{l.nsPerFrame(), "ns/frame"}
		m[name+".allocs_per_frame"] = metric{l.allocsPerFrame(), "allocs/frame"}
		m[name+".share"] = metric{share[name], "ratio"}
	}
	for _, c := range countMetrics {
		v := tr.counts[c.point]
		if c.point == "netsim_frames_switched_total" {
			v = live
		}
		m[c.metric] = metric{v, "count"}
	}
	return m
}

// printTrace writes the span table and the ledger to log.
func printTrace(log io.Writer, name string, tr *traceReport, led *ledger, m map[string]metric) {
	fmt.Fprintf(log, "%s traced unit (1 worker): %.1f ms traced, %.1f ms untraced, overhead %.3f, %.0f frames delivered\n",
		name, tr.unitMS, tr.plainMS, m["trace.overhead"].Value, tr.liveFrames)
	names := make([]string, 0, len(tr.spans))
	for n := range tr.spans {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(log, "  %-24s %12s %8s %12s %12s\n", "span", "ms/unit", "share", "p50 ms/home", "p90 ms/home")
	for _, n := range names {
		line := fmt.Sprintf("  %-24s %12.2f %8.3f", n, tr.spans[n], ratio(tr.spans[n], tr.unitMS))
		if h := tr.perHome[n]; len(h) > 0 {
			line += fmt.Sprintf(" %12.3f %12.3f", percentile(h, 50), percentile(h, 90))
		}
		fmt.Fprintln(log, line)
	}
	fmt.Fprintf(log, "replay ledger: %.0f recorded frames, fan-out %.2f host calls/frame\n", led.frames, led.fanout())
	fmt.Fprintf(log, "  %-18s %12s %14s %8s\n", "layer", "ns/frame", "allocs/frame", "share")
	for _, l := range ledgerLayers {
		fmt.Fprintf(log, "  %-18s %12.1f %14.3f %8.3f\n", l,
			m[l+".ns_per_frame"].Value, m[l+".allocs_per_frame"].Value, m[l+".share"].Value)
	}
	fmt.Fprintf(log, "ledger.coverage %.3f of traced wall (target >= 0.90)\n", m["ledger.coverage"].Value)
	for _, n := range tr.notes {
		fmt.Fprintln(log, "note:", n)
	}
}

// writeTrace keeps the run's spans and ledger next to the benchmark binary
// (under .bench_build/ in the checkout).
func writeTrace(o options, tr *traceReport, m map[string]metric) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	type homeStat struct{ P50, P90 float64 }
	perHome := map[string]homeStat{}
	for n, h := range tr.perHome {
		perHome[n] = homeStat{percentile(h, 50), percentile(h, 90)}
	}
	out := struct {
		Host      string
		SpansMS   map[string]float64
		PerHomeMS map[string]homeStat
		Counts    map[string]float64
		Metrics   map[string]metric
		Notes     []string
	}{hostLine(o), tr.spans, perHome, tr.counts, m, tr.notes}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(filepath.Dir(exe), fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
	return os.WriteFile(path, b, 0o644)
}
