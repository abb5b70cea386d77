// Package experiment orchestrates the paper's methodology (§4): the six
// connectivity experiments of Table 2 over the simulated testbed, the
// functionality tests, and the two active experiments (DNS AAAA queries
// and port scans).
package experiment

import (
	"context"
	"fmt"
	"net/netip"
	"time"

	"v6lab/internal/cloud"
	"v6lab/internal/device"
	"v6lab/internal/dnsmsg"
	"v6lab/internal/faults"
	"v6lab/internal/firewall"
	"v6lab/internal/netsim"
	"v6lab/internal/packet"
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
// pcap Capture or streams them straight into an analysis observer.
type CapturePolicy int

const (
	// CaptureDefault resolves to a caller-appropriate policy: the run
	// engine treats it as CaptureFull (the pre-policy behavior, keeping
	// zero-value StudyOptions byte-identical), while aggregate-only
	// drivers — the fleet, the resilience grid — resolve it to
	// CaptureNone before building their studies.
	CaptureDefault CapturePolicy = iota
	// CaptureFull buffers every delivered frame into a pcapio.Capture
	// (the tcpdump-equivalent record pcap artifacts are written from).
	CaptureFull
	// CaptureNone materializes no Capture at all: frames are parsed once
	// at delivery by the study's streaming Observer and the bytes are
	// never retained. Requires an ObserverFactory.
	CaptureNone
)

// Observer is the experiment-facing half of a streaming analysis sink: a
// delivery tap that also reports how many frames it consumed. The
// analysis package owns the concrete type (and its Finalize); experiment
// only wires it onto the switch, which keeps the import direction
// analysis → experiment.
type Observer interface {
	netsim.Tap
	Frames() int
}

// ObserverFactory builds one streaming Observer per experiment run.
// Factories must return observers that are independent across calls: each
// run gets its own (runs on different workers are concurrent).
type ObserverFactory func(cfg Config, st *Study) Observer

// RunResult captures everything one experiment produced.
type RunResult struct {
	Config Config
	// Capture is the tcpdump-equivalent record of every LAN frame; nil
	// when the study ran CaptureNone.
	Capture *pcapio.Capture
	// Observed is the streaming observer that consumed the run's frames
	// under CaptureNone (nil on the buffered path). It is an opaque
	// handle here; the analysis package finalizes it.
	Observed Observer
	// Functional maps device name to the outcome of its functionality
	// test in this experiment.
	Functional map[string]bool
	// Neighbors is the router's IPv6 neighbor table at the end of the run
	// (the port-scan address source, §4.3).
	Neighbors map[netip.Addr]packet.MAC
	// Leases4 maps device MACs to their DHCPv4 addresses.
	Leases4 map[packet.MAC]netip.Addr
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

// Frames reports how many frames the run recorded for analysis: the
// buffered capture's length, or the streaming observer's count, or (with
// neither attached) the raw delivery count.
func (r *RunResult) Frames() int {
	switch {
	case r.Capture != nil:
		return r.Capture.Len()
	case r.Observed != nil:
		return r.Observed.Frames()
	}
	return r.FramesDelivered
}

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
	// cloud registry, MAC index. Profiles/Plans/MACToDevice below alias it
	// (kept as fields for the pre-World API).
	World *world.World

	Profiles []*device.Profile
	Plans    []*device.Plan
	Stacks   []*device.Stack
	Cloud    *cloud.Cloud
	Clock    *netsim.Clock

	// MACToDevice resolves capture frames back to device identities.
	MACToDevice map[packet.MAC]*device.Profile

	Results []*RunResult
	// ActiveDNS holds the §4.3 active AAAA query results per domain.
	ActiveDNS map[string]AAAAResult
	// Scan holds the port-scan findings.
	Scan *ScanReport

	// MaxFramesPerRun bounds each experiment's frame deliveries.
	MaxFramesPerRun int

	// Capture selects frame buffering per run; CaptureDefault behaves as
	// CaptureFull here. CaptureNone runs feed the Observe factory's
	// streaming sink instead — or, with no factory, attach no analysis
	// tap at all (aggregate-only runs).
	Capture CapturePolicy
	// Observe, when non-nil, builds the streaming analysis sink each
	// CaptureNone run feeds at delivery time. Ignored on buffered runs
	// (the capture is the analysis source there; attaching both would
	// parse every frame twice for nothing).
	Observe ObserverFactory

	// Workers bounds the worker pool the connectivity experiments (and the
	// analysis extraction) run on. 0 or 1 means serial. See parallel.go for
	// the byte-identity guarantee and the fault-path fallback.
	Workers int

	// Faults, when non-nil, impairs every experiment: the link model is
	// installed on the switch and the service-fault schedule on the
	// router, and the retry passes run between phases. Nil (the default)
	// is the perfect network and leaves every run byte-identical to a
	// study built without fault support.
	Faults *faults.Profile

	// Telemetry, when non-nil, is the registry every subsystem counts
	// into; nil (the default) runs fully uninstrumented.
	Telemetry *telemetry.Registry
	// Progress, when non-nil, receives a completion event per experiment
	// (and per firewall policy). The event stream is completion-ordered —
	// a live view, deliberately outside the deterministic snapshot.
	Progress telemetry.Sink

	// tm caches the registry's pre-resolved instruments; nil when
	// Telemetry is nil.
	tm *studyMetrics

	// scratch holds the study's recycled run infrastructure (the switch
	// and its frame arena); never nil after construction.
	scratch *Scratch
	// pool, when non-nil, recycles whole isolated environments across
	// parallel runs and across studies over the same World.
	pool *EnvPool
}

// StudyOptions parameterizes testbed construction over a World. The zero
// value of every other field selects the paper's single-home defaults:
// the paper's capture start time and the default frame budget, a serial
// buffered run with no faults or telemetry. Unless World, Pool, or
// Scratch deliberately share state, every field the study touches is
// instantiated per call — two studies built from such options share no
// mutable state and may run on concurrent goroutines. (A shared World is
// read-only and therefore also concurrency-safe; a shared Scratch is not.)
type StudyOptions struct {
	// World is the prebuilt immutable world the study runs over (required;
	// world.Build makes one), shared read-only with any number of other
	// studies. The study serves traffic through a Clone of its cloud
	// (private query counters), so sharing is race-free.
	World *world.World
	// Pool, when non-nil, recycles isolated parallel-run environments
	// (stacks, switch, clock, cloud clone) across studies. Environments
	// are keyed by World identity, so a pool only pays off when studies
	// share a World; mismatched environments are simply not reused.
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
	// Capture selects frame buffering per run. The zero value
	// (CaptureDefault) keeps the buffered pre-policy behavior here;
	// aggregate-only drivers resolve it to CaptureNone themselves.
	Capture CapturePolicy
	// Observe builds the streaming analysis sink for CaptureNone runs;
	// see Study.Observe.
	Observe ObserverFactory
	// Workers bounds the pool the six connectivity experiments run on;
	// 0 or 1 means the serial engine. Results are byte-identical either
	// way (parallel.go).
	Workers int
	// Telemetry, when non-nil, instruments every subsystem the study
	// touches into the given registry. Studies sharing a registry (fleet
	// homes, resilience profiles) accumulate into the same counters.
	Telemetry *telemetry.Registry
	// Progress, when non-nil, receives per-unit completion events.
	Progress telemetry.Sink
}

// NewStudy builds the testbed: 93 device stacks, their workload plans, and
// a cloud primed with every planned destination domain.
func NewStudy() *Study {
	return NewStudyWith(StudyOptions{World: world.Build(nil)})
}

// NewStudyWith builds a testbed from options; see StudyOptions for the
// zero-value defaults. The study serves traffic through a Clone of the
// world's cloud: private query counters over the shared domain registry.
func NewStudyWith(opts StudyOptions) *Study {
	start := opts.Start
	if start.IsZero() {
		start = time.Date(2024, 4, 5, 9, 0, 0, 0, time.UTC)
	}
	maxFrames := opts.MaxFramesPerRun
	if maxFrames == 0 {
		maxFrames = 3_000_000
	}
	w := opts.World
	st := &Study{
		World:           w,
		Profiles:        w.Profiles,
		Plans:           w.Plans,
		Cloud:           w.Cloud.Clone(),
		Clock:           netsim.NewClock(start),
		MACToDevice:     w.MACToDevice,
		ActiveDNS:       map[string]AAAAResult{},
		MaxFramesPerRun: maxFrames,
		Capture:         opts.Capture,
		Observe:         opts.Observe,
		Workers:         opts.Workers,
		Telemetry:       opts.Telemetry,
		Progress:        opts.Progress,
		scratch:         opts.Scratch,
		pool:            opts.Pool,
	}
	if st.scratch == nil {
		st.scratch = NewScratch()
	}
	if opts.Telemetry != nil {
		st.tm = newStudyMetrics(opts.Telemetry)
	}
	if opts.Faults != nil && opts.Faults.Active() {
		fp := *opts.Faults
		if fp.Seed == 0 {
			fp.Seed = 1
		}
		st.Faults = &fp
	}
	for i, p := range w.Profiles {
		st.Stacks = append(st.Stacks, device.NewStack(p, w.Plans[i], i, w.Prefixes))
	}
	return st
}

// RunAll executes the six connectivity experiments — on the parallel
// engine when Workers > 1 and no faults are active, serially otherwise —
// then the active DNS queries and the port scans. Both engines produce
// byte-identical results.
func (st *Study) RunAll() error {
	return st.RunAllContext(context.Background())
}

// RunAllContext is RunAll with cancellation: ctx is checked between
// experiments (and before the active phases), so a cancelled study
// returns ctx.Err() promptly without appending partial results.
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
	if err == nil && st.tm != nil {
		// One fold of the study's accumulated cloud query totals, after
		// both engines have converged on identical counts.
		st.tm.foldCloud(st.Cloud)
	}
	return err
}

// runConnectivity dispatches the Table 2 grid to the serial loop or the
// worker pool. Under active faults the DHCPv4 XID sequence depends on how
// many retransmissions earlier experiments provoked, which only the serial
// engine can know, so faulted studies always run serially.
func (st *Study) runConnectivity(ctx context.Context) error {
	if st.Workers > 1 && st.Faults == nil {
		return st.runConnectivityParallel(ctx, st.Workers)
	}
	for _, cfg := range Configs {
		if err := ctx.Err(); err != nil {
			return err
		}
		res, err := st.RunExperiment(cfg)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", cfg.ID, err)
		}
		st.Results = append(st.Results, res)
	}
	return nil
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
	// At most one analysis tap per run: the buffered capture (default) or
	// the streaming observer — never both, so every frame is recorded or
	// parsed for analysis exactly once. CaptureNone without an observer
	// attaches nothing: aggregate-only callers (the resilience grid, the
	// adversary campaign) read stack and router state, not frames, and
	// skip the per-frame tap cost entirely.
	var cap *pcapio.Capture
	var obs Observer
	if st.Capture == CaptureNone {
		if st.Observe != nil {
			obs = st.Observe(cfg, st)
			h.Net.AddTap(obs)
		}
	} else {
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
		Neighbors:       rt.Neighbors,
		Leases4:         map[packet.MAC]netip.Addr{},
		FramesDelivered: h.Net.Delivered(),
	}
	for _, s := range st.Stacks {
		res.Functional[s.Prof.Name] = s.Functional()
		if lease, ok := rt.LeaseFor(s.MAC); ok {
			res.Leases4[s.MAC] = lease
		}
		res.Retransmits += s.Retransmits()
	}
	if st.Faults != nil {
		res.FramesDropped = h.Net.Dropped()
		res.PTBSent = rt.PTBSent
		res.ServiceDrops = rt.Faults.RAsDropped + rt.Faults.DHCPv6Dropped + rt.Faults.AAAADropped
	}
	// Fold before the inter-experiment hour so elapsed reflects only
	// simulated time this run consumed — the same value under the serial
	// engine (shared advancing clock) and the parallel one (private
	// clock from a common base).
	elapsed := st.Clock.Now().Sub(began)
	if st.tm != nil {
		st.tm.foldRun(cfg, rt, st.Stacks, elapsed)
		// Capture-path accounting: atomic adds, so the fold is identical
		// across engines and worker counts.
		if cap != nil {
			st.tm.framesBuffered.Add(uint64(cap.Len()))
			st.tm.captureBytes.Add(int64(cap.Bytes()))
		}
		if obs != nil {
			st.tm.framesStreamed.Add(uint64(obs.Frames()))
		}
	}
	functional := 0
	for _, ok := range res.Functional {
		if ok {
			functional++
		}
	}
	telemetry.Emit(st.Progress, telemetry.Event{
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
	for _, pl := range st.Plans {
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

// Result returns the RunResult for an experiment ID, or nil.
func (st *Study) Result(id string) *RunResult {
	for _, r := range st.Results {
		if r.Config.ID == id {
			return r
		}
	}
	return nil
}

// DeviceByName finds a profile.
func (st *Study) DeviceByName(name string) *device.Profile {
	return device.Find(st.Profiles, name)
}
