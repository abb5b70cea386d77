// Package v6lab reproduces "IoT Bricks Over v6: Understanding IPv6 Usage
// in Smart Homes" (IMC 2024) end to end on a simulated smart-home testbed:
// 93 modelled consumer IoT devices behind a dnsmasq-style home router run
// the paper's six connectivity experiments, every LAN frame is captured in
// pcap form, and the paper's analysis pipeline re-derives each table and
// figure of the evaluation from those captures.
//
// Quick start:
//
//	lab := v6lab.New()
//	if err := lab.Run(); err != nil { ... }
//	fmt.Print(lab.Report(v6lab.Table3))
//
// New takes functional options (WithDevices, WithSeed, WithFaultProfile,
// WithMaxFramesPerRun, WithPcaps) and Run composes parts: Run() alone
// performs the connectivity study, Run(Resilience()) the impairment grid,
// Run(Connectivity(), FirewallComparison(), Fleet(16)) all three.
package v6lab

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"v6lab/internal/adversary"
	"v6lab/internal/analysis"
	"v6lab/internal/device"
	"v6lab/internal/experiment"
	"v6lab/internal/faults"
	"v6lab/internal/firewall"
	"v6lab/internal/fleet"
	"v6lab/internal/pcapio"
	"v6lab/internal/report"
	"v6lab/internal/telemetry"
	"v6lab/internal/timeline"
	"v6lab/internal/world"
)

// Artifact names one of the paper's tables or figures.
type Artifact string

// The reproducible artifacts.
const (
	Table3   Artifact = "table3"
	Table4   Artifact = "table4"
	Table5   Artifact = "table5"
	Table6   Artifact = "table6"
	Table7   Artifact = "table7"
	Table8   Artifact = "table8"
	Table9   Artifact = "table9"
	Table10  Artifact = "table10"
	Table12  Artifact = "table12"
	Table13  Artifact = "table13"
	Figure2  Artifact = "figure2"
	Figure3  Artifact = "figure3"
	Figure4  Artifact = "figure4"
	Figure5  Artifact = "figure5"
	DADAudit Artifact = "dad"
	// FuncMatrix extends the paper: functionality per experiment variant.
	FuncMatrix Artifact = "functional-matrix"
	Ports      Artifact = "ports"
	Tracking   Artifact = "tracking"
	// Firewall extends the paper: the §5.4.2 scan repeated from a WAN
	// vantage under each inbound-IPv6 firewall policy (§6's
	// countermeasure space). Requires Run(FirewallComparison(...)).
	Firewall Artifact = "firewall"
	// FleetStudy extends the paper from one testbed home to a population:
	// N independent simulated homes run in parallel and aggregate into
	// population-level prevalence results. Requires Run(Fleet(n)).
	FleetStudy Artifact = "fleet"
	// ResilienceStudy extends the paper: the Table 2 grid re-run under
	// deterministic impairment profiles (lossy Wi-Fi, a tunnel MTU clamp,
	// flaky router services). Requires Run(Resilience(...)).
	ResilienceStudy Artifact = "resilience"
	// AdversaryStudy extends the paper to the attacker's view of a fleet:
	// v6 address discovery (EUI-64 expansion, low-byte sweeps, leak
	// harvesting) scored against ground truth, a campaign sweep through
	// each home's firewall, and a worm-propagation time-to-compromise
	// table per policy. Requires Run(Adversary(n)).
	AdversaryStudy Artifact = "adversary"
	// TimelineStudy extends the paper over time: a population simulated
	// across days-to-weeks of event-scheduled time, reporting per-day
	// functionality, the DHCP lease-renewal funnel, sleep/wake and
	// power-cycle churn, and the re-addressing outages ISP prefix
	// rotations cause. Requires Run(Timeline(h)).
	TimelineStudy Artifact = "timeline"
)

// Artifacts lists every artifact in report order.
var Artifacts = []Artifact{
	Table3, Figure2, Table4, Table5, Table6, Figure3, Figure4, Table7,
	Table8, Table9, Table10, Table12, Table13, Figure5, DADAudit, Ports, Tracking,
	FuncMatrix, Firewall, FleetStudy, ResilienceStudy, AdversaryStudy, TimelineStudy,
}

// ErrUnknownArtifact is returned (wrapped) by ReportErr for artifact names
// outside Artifacts.
var ErrUnknownArtifact = errors.New("unknown artifact")

// ErrUnknownDevice is returned (wrapped) by Run and RunContext when
// WithDevices named a device outside the registry.
var ErrUnknownDevice = errors.New("v6lab: unknown device")

// options collects what the functional options configure.
type options struct {
	deviceNames []string
	devices     []*device.Profile
	seed        uint64
	maxFrames   int
	fault       *faults.Profile
	workers     int
	pcaps       func(experimentID string) (io.WriteCloser, error)
	telemetry   *telemetry.Registry
	progress    telemetry.Sink
	env         *Env
	ablation    Options
	horizon     Horizon
	horizonSet  bool
}

// Option configures New.
type Option func(*options)

// WithDevices restricts the testbed to the named devices (registry order
// is preserved regardless of the order given). Workload plans scale with
// the population, per experiment.StudyOptions. Names outside the registry
// are rejected at New time: the constructor records an ErrUnknownDevice
// that the first Run/RunContext returns.
func WithDevices(names ...string) Option {
	return func(o *options) { o.deviceNames = append(o.deviceNames, names...) }
}

// WithSeed sets the lab's seed (the default is 1). Fault profiles without
// an explicit seed (every profile of faults.Grid()) inherit it: the
// WithFaultProfile study's, a Timeline's impairment, and the Resilience
// grid's unless Seed(...) overrides it (see Impairments). The Fleet,
// Adversary, Timeline and Resilience parts inherit it too unless a Seed
// PartOption or their config sets one (see PartOption). A lab is
// byte-deterministic in (options, parts): same seed and profile, same
// pcaps and reports.
func WithSeed(seed uint64) Option {
	return func(o *options) { o.seed = seed }
}

// WithMaxFramesPerRun bounds each experiment's frame deliveries (0 keeps
// the default 3,000,000). The bound reaches every part: each fleet or
// adversary home's run and each timeline event's drain, unless the part's
// config sets its own (see PartOption).
func WithMaxFramesPerRun(n int) Option {
	return func(o *options) { o.maxFrames = n }
}

// WithFaultProfile runs the whole lab under a deterministic impairment
// profile (see package faults). The clean profile (or none) keeps the
// perfect network and byte-identical default output.
func WithFaultProfile(p faults.Profile) Option {
	return func(o *options) { o.fault = &p }
}

// WithWorkers is the lab's single worker-count knob: it sizes the pool
// for the connectivity experiments (faulted or not), the resilience
// grid's profiles, and — unless a Workers PartOption or their configs say
// otherwise — the fleet, adversary and timeline parts. Output is
// byte-identical for every n: results merge in config (or home-index)
// order and pcap timestamps are rebased onto one cumulative timeline (see
// the experiment package). 0 means one worker for the connectivity
// experiments and the resilience grid, and GOMAXPROCS for the fleet,
// adversary and timeline pools.
func WithWorkers(n int) Option {
	return func(o *options) { o.workers = n }
}

// WithPcaps writes one pcap file per connectivity experiment through
// sink: once the six runs finish, Connectivity opens sink(experimentID)
// for each in config order, writes the run's frames, and closes it. Only
// a lab with a sink buffers frames, and it drops them once written, so a
// lab holds no frame after Run either way. Analysis streams every frame
// at delivery, so reports are the same with or without a sink. The
// fleet, resilience, adversary and timeline parts never buffer.
func WithPcaps(sink func(experimentID string) (io.WriteCloser, error)) Option {
	return func(o *options) { o.pcaps = sink }
}

// PcapDir is the WithPcaps sink that writes dir/<experimentID>.pcap,
// creating dir as needed.
func PcapDir(dir string) func(experimentID string) (io.WriteCloser, error) {
	return func(id string) (io.WriteCloser, error) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		return os.Create(filepath.Join(dir, id+".pcap"))
	}
}

// WithTelemetry instruments every subsystem the lab touches — the L2
// switch, router, firewall, conntrack, devices, cloud, and the
// experiment/fleet orchestration — into the given registry. Metrics are
// timestamped off the simulated clock and every update is an atomic
// addition, so the snapshot a run produces is byte-identical for any
// worker count (see TelemetrySnapshot). A nil registry (the default)
// runs fully uninstrumented and keeps the recorded byte-identity of
// uninstrumented releases.
func WithTelemetry(r *telemetry.Registry) Option {
	return func(o *options) { o.telemetry = r }
}

// WithProgress streams one event per completed unit of work — a Table 2
// experiment, a fleet home, a firewall policy, a resilience profile — to
// the sink. Events carry elapsed simulated time and arrive in completion
// order, which under parallel engines depends on scheduling: the stream
// is a live view, deliberately excluded from the deterministic snapshot.
func WithProgress(sink telemetry.Sink) Option {
	return func(o *options) { o.progress = sink }
}

// WithHorizon sets the lab's default simulated horizon: Timeline parts
// given a zero Horizon fall back to it. A zero or negative horizon is
// rejected at New time — the constructor records an ErrInvalidHorizon
// that the first Run/RunContext returns, so misconfiguration surfaces at
// the API boundary instead of panicking mid-run.
func WithHorizon(h Horizon) Option {
	return func(o *options) { o.horizon = h; o.horizonSet = true }
}

// Lab is the top-level handle: a configured study plus, after Run, the
// analyzed dataset. Its exported fields are the typed results: each part
// sets its own, parts that have not run leave theirs nil, and the
// renderers read the same fields callers do.
type Lab struct {
	Study *experiment.Study
	Data  *analysis.Dataset
	// FirewallCmp holds the policy-comparison results once
	// Run(FirewallComparison(...)) has run.
	FirewallCmp *experiment.FirewallReport
	// FleetPop holds the multi-home population results once Run(Fleet(n))
	// has run.
	FleetPop *fleet.Population
	// Resil holds the impairment-grid results once Run(Resilience(...))
	// has run.
	Resil *experiment.ResilienceReport
	// Adv holds the attacker's-view results once Run(Adversary(n)) has
	// run.
	Adv *adversary.Report
	// TL holds the long-horizon results once Run(Timeline(h)) has run.
	TL *timeline.Report

	opts options
	// initErr records an option rejected at New time (e.g. an invalid
	// WithHorizon); the first Run/RunContext returns it.
	initErr error
	// ctx is the context of the RunContext call currently executing;
	// parts read it through runCtx. Nil outside Run/RunContext.
	ctx context.Context
}

// New builds the testbed (devices, workload plans, simulated cloud).
// Without options it is the paper's single-home study, byte-identical to
// earlier releases. New is the only place a lab's world is made: it
// borrows an Env's world or builds one, applies any WithAblation to it,
// and only then builds the study. Every single-home part runs on that
// world, and nothing writes it afterwards.
func New(opts ...Option) *Lab {
	o := options{seed: 1}
	for _, opt := range opts {
		opt(&o)
	}
	var devErr error
	if len(o.deviceNames) > 0 {
		o.devices, devErr = resolveDevices(o.deviceNames)
	}
	l := &Lab{opts: o}
	if devErr != nil {
		l.initErr = fmt.Errorf("WithDevices: %w", devErr)
	} else if o.horizonSet {
		if err := o.horizon.validate(); err != nil {
			l.initErr = fmt.Errorf("WithHorizon: %w", err)
		}
	}
	so := experiment.StudyOptions{
		MaxFramesPerRun: o.maxFrames,
		Observe:         analysis.Streaming(),
		Workers:         o.workers,
		Telemetry:       o.telemetry,
		Progress:        o.progress,
	}
	// A lab that restricts the population or ablates simulates a
	// different world than the Env holds, so it builds its own (see
	// WithEnv) and finishes it before the study reads it.
	if o.env != nil && len(o.devices) == 0 && !o.ablation.active() {
		so.World, so.Pool = o.env.world, o.env.pool
	} else {
		so.World = world.Build(o.devices)
		o.ablation.apply(so.World)
	}
	if o.pcaps == nil {
		so.Capture = experiment.CaptureNone
	}
	if o.fault != nil {
		fp := *o.fault
		if fp.Seed == 0 {
			fp.Seed = o.seed
		}
		so.Faults = &fp
	}
	l.Study = experiment.NewStudyWith(so)
	return l
}

// runCtx is the context parts run under: RunContext's argument, or
// context.Background() for plain Run.
func (l *Lab) runCtx() context.Context {
	if l.ctx != nil {
		return l.ctx
	}
	return context.Background()
}

// resolveDevices maps names onto registry profiles, preserving registry
// order. Unknown names yield an ErrUnknownDevice listing them in the order
// given.
func resolveDevices(names []string) ([]*device.Profile, error) {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	var out []*device.Profile
	for _, p := range device.Registry() {
		if want[p.Name] {
			out = append(out, p)
			delete(want, p.Name)
		}
	}
	var missing []string
	for _, n := range names {
		if want[n] {
			missing = append(missing, n)
			delete(want, n)
		}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("%w: %s", ErrUnknownDevice, strings.Join(missing, ", "))
	}
	return out, nil
}

// RunPart is one composable unit of work for Run. The provided parts —
// Connectivity, FirewallComparison, Fleet, Adversary, Resilience,
// Timeline — cover every study the lab knows how to run; each takes
// PartOptions (Capture, Seed, Workers, Impairments, or a full config via
// FleetConfig/AdversaryConfig/TimelineConfig) for per-part control.
type RunPart func(*Lab) error

// Connectivity is the core study: the six Table 2 experiments, the active
// DNS queries, the port scans, the pcaps WithPcaps asks for, and the
// analysis pipeline over the streamed frames. Run() with no parts is
// equivalent to Run(Connectivity()).
func Connectivity() RunPart {
	return func(l *Lab) error {
		if err := l.Study.RunAllContext(l.runCtx()); err != nil {
			return err
		}
		if err := l.writePcaps(); err != nil {
			return err
		}
		l.Data = analysis.FromStudy(l.Study)
		return nil
	}
}

// writePcaps writes each buffered run through the lab's pcap sink, in
// config order, and drops the buffer whether or not the write succeeded.
// Runs without a buffer (a lab without a sink) have nothing to write.
func (l *Lab) writePcaps() error {
	var err error
	for _, res := range l.Study.Results {
		if res.Capture == nil {
			continue
		}
		if err == nil {
			if werr := writePcap(l.opts.pcaps, res.Config.ID, res.Capture.Records); werr != nil {
				err = fmt.Errorf("writing %s pcap: %w", res.Config.ID, werr)
			}
		}
		l.Study.DropCapture(res)
	}
	return err
}

// writePcap writes one experiment's records through sink and closes the
// writer it opened exactly once.
func writePcap(sink func(string) (io.WriteCloser, error), id string, recs []pcapio.Record) error {
	w, err := sink(id)
	if err != nil {
		return err
	}
	if err := pcapio.Write(w, recs); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// FirewallComparison re-runs the §5.4.2 scan from a WAN vantage under the
// named inbound-IPv6 firewall policies ("open", "stateful", "pinhole");
// with no names it compares all three. The pinhole policy carries the
// testbed's default holes (the v6-only service ports, i.e. the Samsung
// Fridge's). Results land in FirewallCmp and the Firewall artifact.
func FirewallComparison(policyNames ...string) RunPart {
	return func(l *Lab) error {
		var policies []firewall.Policy
		if len(policyNames) == 0 {
			policies = experiment.DefaultFirewallPolicies(l.Study.Profiles)
		} else {
			for _, name := range policyNames {
				p, err := experiment.PolicyByName(name, l.Study.Profiles)
				if err != nil {
					return err
				}
				policies = append(policies, p)
			}
		}
		rep, err := l.Study.RunFirewallExposure(policies)
		if err != nil {
			return err
		}
		l.FirewallCmp = rep
		return nil
	}
}

// Run executes the given parts in order; with no parts it runs
// Connectivity — the six connectivity experiments, the active DNS
// queries, and the port scans, then the analysis pipeline over the
// captures.
func (l *Lab) Run(parts ...RunPart) error {
	return l.RunContext(context.Background(), parts...)
}

// RunContext is Run under a context. Cancellation is checked between
// parts and, inside each part, between experiments, fleet homes, and
// resilience profiles; a cancelled run returns ctx.Err() and leaves no
// partially-populated result on the lab — Data, FleetPop, FirewallCmp,
// and Resil each stay nil (or keep their previous value) unless their
// part completed.
func (l *Lab) RunContext(ctx context.Context, parts ...RunPart) error {
	if l.initErr != nil {
		return l.initErr
	}
	if len(parts) == 0 {
		parts = []RunPart{Connectivity()}
	}
	prev := l.ctx
	l.ctx = ctx
	defer func() { l.ctx = prev }()
	for _, part := range parts {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := part(l); err != nil {
			return err
		}
	}
	return nil
}

// Report renders one artifact as text, side by side with the paper's
// published values. An artifact ReportErr rejects renders as the error's
// one-line message.
func (l *Lab) Report(a Artifact) string {
	out, err := l.ReportErr(a)
	if err != nil {
		return err.Error() + "\n"
	}
	return out
}

// ReportErr renders one artifact as text, returning an error wrapping
// ErrUnknownArtifact for names outside Artifacts, or ErrNotRun for a
// study artifact before Connectivity has run. The name check comes first.
// Rendering itself is a thin pass over the lab's result fields (see
// renderArtifact).
func (l *Lab) ReportErr(a Artifact) (string, error) {
	known := false
	for _, k := range Artifacts {
		if a == k {
			known = true
			break
		}
	}
	if !known {
		return "", fmt.Errorf("%w %q", ErrUnknownArtifact, a)
	}
	return renderArtifact(l, a)
}

// FullReport renders every artifact. Before Connectivity has run it
// renders ErrNotRun's one-line message instead, as Report does.
func (l *Lab) FullReport() string {
	if l.Data == nil {
		return ErrNotRun.Error() + "\n"
	}
	out := ""
	for _, a := range Artifacts {
		// The resilience grid and adversary study are opt-in: when they
		// have not run, FullReport stays byte-identical to reports from
		// before each existed.
		if a == ResilienceStudy && l.Resil == nil {
			continue
		}
		if a == AdversaryStudy && l.Adv == nil {
			continue
		}
		if a == TimelineStudy && l.TL == nil {
			continue
		}
		out += l.Report(a) + "\n"
	}
	return out
}

// ExportCSV writes plot-ready CSV series (the Figure 2 funnel, Figure 3
// CDFs, and Figure 4 volume shares) into dir. Before Connectivity has run
// it returns an error wrapping ErrNotRun.
func (l *Lab) ExportCSV(dir string) error {
	if l.Data == nil {
		return fmt.Errorf("exporting CSV: %w", ErrNotRun)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, content := range report.CSVFiles(l.Data) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			return err
		}
	}
	return nil
}
