// Package experiment orchestrates the paper's methodology (§4): the six
// connectivity experiments of Table 2 over the simulated testbed, the
// functionality tests, and the two active experiments (DNS AAAA queries
// and port scans).
package experiment

import (
	"context"
	"fmt"
	"time"

	"v6lab/internal/cloud"
	"v6lab/internal/device"
	"v6lab/internal/dnsmsg"
	"v6lab/internal/faults"
	"v6lab/internal/firewall"
	"v6lab/internal/netsim"
	"v6lab/internal/pcapio"
	"v6lab/internal/router"
	"v6lab/internal/telemetry"
	"v6lab/internal/world"
)

// Config is one connectivity experiment.
type Config struct {
	// ID is a short slug ("ipv6-only-stateful").
	ID string
	// Title is the paper's name for the run.
	Title string
	// Router selects the services dnsmasq would run (Table 2 columns).
	Router router.Config
	// Mode is the device-facing stack mode.
	Mode device.Mode
	// V6Seq numbers the v6-enabled experiments (for address rotation
	// scheduling); -1 when IPv6 is off.
	V6Seq int
}

// Configs lists the six experiments of Table 2, in execution order.
var Configs = []Config{
	{
		ID: "ipv4-only", Title: "IPv4-only",
		Router: router.Config{Name: "ipv4-only", IPv4: true},
		Mode:   device.ModeV4Only, V6Seq: -1,
	},
	{
		ID: "ipv6-only", Title: "IPv6-only",
		Router: router.Config{Name: "ipv6-only", IPv6: true, StatelessDHCPv6: true},
		Mode:   device.ModeV6Only, V6Seq: 0,
	},
	{
		ID: "ipv6-only-rdnss", Title: "IPv6-only (RDNSS-only)",
		Router: router.Config{Name: "ipv6-only-rdnss", IPv6: true},
		Mode:   device.ModeV6Only, V6Seq: 1,
	},
	{
		ID: "ipv6-only-stateful", Title: "IPv6-only (stateful)",
		Router: router.Config{Name: "ipv6-only-stateful", IPv6: true, StatelessDHCPv6: true, StatefulDHCPv6: true},
		Mode:   device.ModeV6Only, V6Seq: 2,
	},
	{
		ID: "dual-stack", Title: "Dual-stack",
		Router: router.Config{Name: "dual-stack", IPv4: true, IPv6: true, StatelessDHCPv6: true},
		Mode:   device.ModeDual, V6Seq: 3,
	},
	{
		ID: "dual-stack-stateful", Title: "Dual-stack (stateful)",
		Router: router.Config{Name: "dual-stack-stateful", IPv4: true, IPv6: true, StatelessDHCPv6: true, StatefulDHCPv6: true},
		Mode:   device.ModeDual, V6Seq: 4,
	},
}

// configIndex maps experiment IDs to their position in Configs, built once
// at init so ConfigByID is a map lookup instead of a linear scan.
var configIndex = func() map[string]int {
	m := make(map[string]int, len(Configs))
	for i, c := range Configs {
		m[c.ID] = i
	}
	return m
}()

// ConfigByID returns the Table 2 experiment config with the given ID.
func ConfigByID(id string) (Config, bool) {
	i, ok := configIndex[id]
	if !ok {
		return Config{}, false
	}
	return Configs[i], true
}

// CapturePolicy selects whether an experiment buffers its frames into a
// pcap Capture. It decides buffering only: analysis always streams
// through the study's observer factory, whatever the policy.
type CapturePolicy int

const (
	// CaptureFull buffers every delivered frame into a pcapio.Capture, the
	// tcpdump-equivalent record pcap artifacts are written from. It is the
	// zero value, so zero StudyOptions keep the recorded pcaps.
	CaptureFull CapturePolicy = iota
	// CaptureNone materializes no Capture: frames are never retained.
	CaptureNone
)

// ObserverFactory builds one streaming analysis tap per experiment run,
// for the home network net it is attached to; the tap may decode frames
// through net's shared per-delivery view (Network.Decode). Factories must
// return taps that are independent across calls: each run gets its own
// (runs on different workers are concurrent). The analysis package owns
// the concrete type and its Finalize; experiment only wires it onto the
// switch, which keeps the import direction analysis → experiment.
type ObserverFactory func(cfg Config, st *Study, net *netsim.Network) netsim.Tap

// RunResult captures everything one experiment produced.
type RunResult struct {
	Config Config
	// Capture is the tcpdump-equivalent record of every LAN frame; nil
	// when the study ran CaptureNone.
	Capture *pcapio.Capture
	// Observed is the streaming observer that consumed the run's frames
	// (nil when the study has no observer factory). It is an opaque
	// handle here; the analysis package finalizes it.
	Observed netsim.Tap
	// Functional maps device name to the outcome of its functionality
	// test in this experiment: true exactly when its stage is "ok".
	Functional map[string]bool
	// Stages holds each device's device.FailureStage in Study.Profiles
	// order: "ok" when functional, else the earliest broken stage of the
	// configuration→DNS→data funnel ("no-ra", "data-stalled", ...).
	Stages []string
	// FramesDelivered counts L2 deliveries (a capacity diagnostic).
	FramesDelivered int
	// FramesDropped counts frames the installed impairment swallowed
	// (always 0 on a clean network).
	FramesDropped int
	// Retransmits counts the retry transmissions devices made to recover
	// from impairment.
	Retransmits int
	// PTBSent counts ICMPv6 Packet-Too-Big errors the clamped tunnel
	// emitted.
	PTBSent int
	// ServiceDrops counts router service messages (RA / DHCPv6 / DNS
	// replies) the fault schedule suppressed.
	ServiceDrops int
}

// Frames reports how many frames the run recorded for analysis. Every
// tap sees exactly the delivered frames, so this is FramesDelivered.
func (r *RunResult) Frames() int { return r.FramesDelivered }

// AAAAResult records the active DNS experiment's verdict for one domain.
type AAAAResult struct {
	Name    string
	HasAAAA bool
	Party   cloud.Party
}

// Study holds the full reproduction state: devices, cloud, experiment
// results, and active-measurement outputs.
type Study struct {
	// World is the immutable half of the study: population, plans, primed
	// cloud registry, MAC index. Profiles aliases World.Profiles.
	World *world.World

	Profiles []*device.Profile
	Stacks   []*device.Stack
	Cloud    *cloud.Cloud
	Clock    *netsim.Clock

	Results []*RunResult
	// ActiveDNS holds the §4.3 active AAAA query results per domain.
	ActiveDNS map[string]AAAAResult
	// Scan holds the port-scan findings.
	Scan *ScanReport

	// opts holds the study's resolved settings (see StudyOptions): the
	// frame budget defaulted, Faults nil unless active and seeded, and no
	// Scratch — the study's own lives in scratch. Run environments
	// adopt a parent's settings by copying this one field.
	opts StudyOptions

	// tm caches the registry's pre-resolved instruments; nil when
	// opts.Telemetry is nil.
	tm *studyMetrics

	// scratch holds the study's recycled run infrastructure (the switch
	// and its frame arena); never nil after construction.
	scratch *Scratch
}

// StudyOptions parameterizes testbed construction over a World. The zero
// value of every other field selects the paper's single-home defaults:
// the paper's capture start time and the default frame budget, a
// one-worker buffered run with no faults or telemetry. Unless World,
// Pool, or Scratch deliberately share state, every field the study
// touches is instantiated per call — two studies built from such
// options share no mutable state and may run on concurrent goroutines.
// (A shared World is read-only and therefore also concurrency-safe; a
// shared Scratch is not.)
type StudyOptions struct {
	// World is the prebuilt immutable world the study runs over (required;
	// world.Build makes one), shared read-only with any number of other
	// studies. The study serves traffic through a Clone of its cloud
	// (private query counters), so sharing is race-free.
	World *world.World
	// Pool, when non-nil, recycles isolated run environments (stacks,
	// switch, clock, cloud clone) across studies: every worker of the
	// grid, the first included, draws one from it. Without a pool the
	// study is its own first environment. Environments are keyed by World
	// identity, so a pool only pays off when studies share a World;
	// mismatched environments are simply not reused.
	Pool *EnvPool
	// Scratch, when non-nil, donates recycled run infrastructure (the L2
	// switch and its frame arena) to this study. Sharing a Scratch is
	// only legal across *sequential* studies — one fleet worker's homes,
	// never two concurrent ones. Nil means private scratch.
	Scratch *Scratch
	// Start is the simulated capture start time; the zero value means the
	// paper's 2024-04-05 09:00 UTC.
	Start time.Time
	// MaxFramesPerRun bounds each experiment's frame deliveries; 0 means
	// the default 3,000,000.
	MaxFramesPerRun int
	// Faults installs a deterministic impairment profile on every
	// experiment the study runs. Inactive profiles (see faults.Profile)
	// are ignored; nil means a perfect network.
	Faults *faults.Profile
	// Capture selects pcap buffering per run; the zero value is
	// CaptureFull.
	Capture CapturePolicy
	// Observe, when non-nil, builds the streaming analysis sink each run
	// feeds at delivery time. Without one no analysis tap is attached
	// (aggregate-only runs read stack and router state, not frames).
	Observe ObserverFactory
	// Workers bounds the pool the six connectivity experiments run on;
	// 0 means one worker. Results are byte-identical for every count
	// (parallel.go).
	Workers int
	// Telemetry, when non-nil, instruments every subsystem the study
	// touches into the given registry. Studies sharing a registry (fleet
	// homes, resilience profiles) accumulate into the same counters.
	Telemetry *telemetry.Registry
	// Progress, when non-nil, receives a completion event per experiment
	// (and per firewall policy). The event stream is completion-ordered —
	// a live view, deliberately outside the deterministic snapshot.
	Progress telemetry.Sink
}

// NewStudyWith builds a testbed from options; see StudyOptions for the
// zero-value defaults. The study serves traffic through a Clone of the
// world's cloud: private query counters over the shared domain registry.
func NewStudyWith(opts StudyOptions) *Study {
	if opts.Start.IsZero() {
		opts.Start = time.Date(2024, 4, 5, 9, 0, 0, 0, time.UTC)
	}
	if opts.MaxFramesPerRun == 0 {
		opts.MaxFramesPerRun = 3_000_000
	}
	if opts.Faults != nil && opts.Faults.Active() {
		fp := *opts.Faults
		if fp.Seed == 0 {
			fp.Seed = 1
		}
		opts.Faults = &fp
	} else {
		opts.Faults = nil
	}
	scratch := opts.Scratch
	if scratch == nil {
		scratch = NewScratch()
	}
	opts.Scratch = nil
	w := opts.World
	st := &Study{
		World:     w,
		Profiles:  w.Profiles,
		Cloud:     w.Cloud.Clone(),
		Clock:     netsim.NewClock(opts.Start),
		ActiveDNS: map[string]AAAAResult{},
		opts:      opts,
		scratch:   scratch,
	}
	if opts.Telemetry != nil {
		st.tm = newStudyMetrics(opts.Telemetry)
	}
	for i, p := range w.Profiles {
		st.Stacks = append(st.Stacks, device.NewStack(p, w.Plans[i], i, w.Prefixes))
	}
	return st
}

// Options returns the study's resolved settings: the frame budget
// defaulted, Faults nil unless active (and then seeded), and Scratch nil.
func (st *Study) Options() StudyOptions { return st.opts }

// RunAllContext executes the six connectivity experiments on the pooled
// engine (runConnectivity), then the active DNS queries and the port
// scans. ctx is checked before each experiment and before the active
// phases, so a cancelled study returns ctx.Err() promptly without
// appending partial results.
func (st *Study) RunAllContext(ctx context.Context) error {
	if err := st.runConnectivity(ctx); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	st.RunActiveDNS()
	var err error
	st.Scan, err = st.RunPortScan()
	if err == nil {
		// One fold of the study's accumulated cloud query totals, after
		// the grid has merged every environment's counts.
		st.FoldCloudMetrics()
	}
	return err
}

// RunExperiment performs one Table 2 run: reboot everything, configure,
// let devices register with their clouds, run the workload, and apply the
// functionality test. The clock then advances an hour, the gap between
// the paper's runs.
func (st *Study) RunExperiment(cfg Config) (*RunResult, error) {
	res, _, err := st.RunExperimentWith(cfg, nil)
	if err != nil {
		return nil, err
	}
	st.Clock.Advance(time.Hour)
	return res, nil
}

// RunExperimentWith is RunExperiment with pol, when non-nil, on the
// router's inbound-IPv6 path. It also returns the live Home, so phases
// that need the booted home (the fleet's WAN sweep) follow on the same
// boot, and it leaves the clock where the run ended: the hour between
// runs is the caller's to advance.
func (st *Study) RunExperimentWith(cfg Config, pol firewall.Policy) (*RunResult, *Home, error) {
	began := st.Clock.Now()
	// The config ID sub-seeds the fault profile: the six runs see
	// different (but reproducible) frame fates from the same seed.
	h := st.NewHome(cfg, pol, cfg.ID)
	// The observer is the run's only analysis source; the capture, when
	// the policy keeps one, is just the buffer pcap artifacts are written
	// from.
	var obs netsim.Tap
	if st.opts.Observe != nil {
		obs = st.opts.Observe(cfg, st, h.Net)
		h.Net.AddTap(obs)
	}
	var cap *pcapio.Capture
	if st.opts.Capture == CaptureFull {
		cap = &pcapio.Capture{}
		h.Net.AddTap(cap)
	}

	// Phases 1-3: reboot and configure, announce, run the workload.
	if err := h.Boot(); err != nil {
		return nil, nil, err
	}
	if err := h.Workload(); err != nil {
		return nil, nil, err
	}
	rt := h.Router

	// Phase 4: functionality test (§4.1).
	res := &RunResult{
		Config:          cfg,
		Capture:         cap,
		Observed:        obs,
		Functional:      map[string]bool{},
		Stages:          make([]string, len(st.Stacks)),
		FramesDelivered: h.Net.Delivered(),
	}
	functional := 0
	for i, s := range st.Stacks {
		stage := s.FailureStage()
		ok := stage == "ok"
		res.Stages[i], res.Functional[s.Prof.Name] = stage, ok
		if ok {
			functional++
		}
		res.Retransmits += s.Retransmits()
	}
	if st.opts.Faults != nil {
		res.FramesDropped = h.Net.Dropped()
		res.PTBSent = rt.PTBSent
		res.ServiceDrops = rt.Faults.RAsDropped + rt.Faults.DHCPv6Dropped + rt.Faults.AAAADropped
	}
	// Fold before the inter-experiment hour so elapsed reflects only
	// simulated time this run consumed, whichever environment ran it.
	elapsed := st.Clock.Now().Sub(began)
	if st.tm != nil {
		st.tm.foldRun(cfg, rt, res, elapsed)
		// Capture-path accounting: atomic adds, so the fold is identical
		// across worker counts.
		if cap != nil {
			st.tm.framesBuffered.Add(uint64(cap.Len()))
			st.tm.captureBytes.Add(int64(cap.Bytes()))
		}
		if obs != nil {
			st.tm.framesStreamed.Add(uint64(res.FramesDelivered))
		}
	}
	telemetry.Emit(st.opts.Progress, telemetry.Event{
		Scope:   "experiment",
		ID:      cfg.ID,
		Detail:  fmt.Sprintf("%d/%d devices functional, %d frames", functional, len(st.Stacks), res.Frames()),
		Elapsed: elapsed,
	})
	return res, h, nil
}

// RunActiveDNS performs the §4.3 active measurement: AAAA queries for
// every destination domain observed across the experiments. (The planner's
// spec list is exactly the set of names the captures contain.)
func (st *Study) RunActiveDNS() {
	for _, pl := range st.World.Plans {
		for _, sp := range pl.Specs {
			if _, done := st.ActiveDNS[sp.Name]; done {
				continue
			}
			answers, rcode := st.Cloud.Resolve(sp.Name, dnsmsg.TypeAAAA)
			st.ActiveDNS[sp.Name] = AAAAResult{
				Name:    sp.Name,
				HasAAAA: rcode == dnsmsg.RCodeSuccess && len(answers) > 0,
				Party:   sp.Party,
			}
		}
	}
}

// FoldCloudMetrics folds the study's not-yet-folded cloud query counts
// into the telemetry registry (a no-op without telemetry). RunAllContext
// and Home.Sweep fold automatically; callers driving RunExperiment
// directly (the fleet's single-config homes, the resilience grid) call it
// once their study is done.
func (st *Study) FoldCloudMetrics() {
	if st.tm != nil {
		st.tm.foldCloud(st.Cloud)
	}
}

// DropCapture releases res's pcap buffer once it has been written (or
// will never be), taking its bytes off the retained-capture gauge.
func (st *Study) DropCapture(res *RunResult) {
	if res.Capture == nil {
		return
	}
	if st.tm != nil {
		st.tm.captureBytes.Add(-int64(res.Capture.Bytes()))
	}
	res.Capture = nil
}
