// Package fleet scales the single-home testbed to populations: it
// instantiates N independent simulated smart homes — each with its own
// device subset, Table 2 connectivity configuration, and inbound-IPv6
// firewall policy — runs them concurrently on a bounded worker pool, and
// aggregates per-home outcomes into population-level prevalence results.
//
// Every home is derived deterministically from (fleet seed, home index),
// and homes share no mutable state, so a fleet's aggregate is
// byte-identical regardless of worker count: results are merged in home
// index order, never in completion order.
package fleet

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"v6lab/internal/addr"
	"v6lab/internal/analysis"
	"v6lab/internal/device"
	"v6lab/internal/experiment"
	"v6lab/internal/firewall"
	"v6lab/internal/splitmix"
	"v6lab/internal/telemetry"
	"v6lab/internal/world"
)

// SizeBand is one bucket of the household-size distribution: homes in the
// band hold between Min and Max devices (inclusive, uniform within).
type SizeBand struct {
	Min, Max int
	Weight   int
}

// Share is one weighted option of a categorical mix (connectivity configs,
// firewall policies).
type Share struct {
	Name   string
	Weight int
}

// Config parameterizes a fleet run. The zero value of every field selects
// a default, so Config{Homes: 100} is a complete specification.
type Config struct {
	// Homes is the population size.
	Homes int
	// Workers bounds the worker pool; 0 means GOMAXPROCS. Prefer setting
	// the worker count once at the lab level (v6lab.WithWorkers), which
	// fleet and adversary parts inherit; this field remains for callers
	// driving the fleet package directly.
	Workers int
	// Seed derives every home's spec; identical seeds reproduce the
	// population exactly. 0 means seed 1.
	Seed uint64
	// Sizes is the household-size distribution; nil means DefaultSizes.
	Sizes []SizeBand
	// Connectivity is the Table 2 config mix by experiment ID; nil means
	// DefaultConnectivity.
	Connectivity []Share
	// Policies is the inbound-IPv6 firewall policy mix ("open",
	// "stateful", "pinhole"); nil means DefaultPolicies.
	Policies []Share
	// MaxFramesPerRun bounds each home experiment's frame deliveries;
	// 0 means the study default.
	MaxFramesPerRun int
	// Sweep, when non-nil, is the WAN phase of every v6-enabled home: it
	// runs on the live home after its workload, with the analysis taps
	// removed, and records what it finds on the home's result. Nil sweeps
	// the home's neighbor table over ProbePorts into HomeResult.Exposure.
	Sweep func(*experiment.Home, *HomeResult) error
	// Telemetry, when non-nil, instruments every home's subsystems into
	// the shared registry. All folds are commuting counter additions, so
	// the final snapshot is identical for any worker count.
	Telemetry *telemetry.Registry
	// Progress, when non-nil, receives one event per completed home (in
	// completion order — a live stream, not part of the snapshot).
	Progress telemetry.Sink
}

// DefaultSizes is the default household-size distribution: mostly small
// deployments with a tail of heavily instrumented homes, the shape
// in-the-wild smart-home studies report.
var DefaultSizes = []SizeBand{
	{Min: 3, Max: 6, Weight: 3},
	{Min: 7, Max: 12, Weight: 4},
	{Min: 13, Max: 20, Weight: 2},
	{Min: 21, Max: 35, Weight: 1},
}

// DefaultConnectivity is the default Table 2 config mix: dual-stack
// dominates residential deployments, IPv4-only remains common, and the
// IPv6-only variants form the forward-looking tail.
var DefaultConnectivity = []Share{
	{Name: "ipv4-only", Weight: 25},
	{Name: "dual-stack", Weight: 35},
	{Name: "dual-stack-stateful", Weight: 15},
	{Name: "ipv6-only", Weight: 10},
	{Name: "ipv6-only-rdnss", Weight: 5},
	{Name: "ipv6-only-stateful", Weight: 10},
}

// DefaultPolicies is the default inbound-IPv6 policy mix: most CPE ships
// RFC 6092 default-deny, a substantial minority forwards the routed
// prefix unfiltered (the paper's router; Rye et al. find millions of such
// homes), and a small slice punches static pinholes.
var DefaultPolicies = []Share{
	{Name: "open", Weight: 35},
	{Name: "stateful", Weight: 50},
	{Name: "pinhole", Weight: 15},
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Sizes == nil {
		c.Sizes = DefaultSizes
	}
	if c.Connectivity == nil {
		c.Connectivity = DefaultConnectivity
	}
	if c.Policies == nil {
		c.Policies = DefaultPolicies
	}
	return c
}

// HomeSpec is one home's deterministic specification.
type HomeSpec struct {
	Index int
	// DeviceIndexes selects the home's devices from the registry, in
	// Table 10 order.
	DeviceIndexes []int
	// Devices holds the selected device names, parallel to DeviceIndexes.
	Devices []string
	// ConfigID is the home's Table 2 connectivity experiment.
	ConfigID string
	// Policy is the home's inbound-IPv6 firewall policy name.
	Policy string
}

// Profiles resolves the home's devices against a registry snapshot, in
// DeviceIndexes order.
func (s HomeSpec) Profiles(reg []*device.Profile) []*device.Profile {
	profiles := make([]*device.Profile, len(s.DeviceIndexes))
	for j, di := range s.DeviceIndexes {
		profiles[j] = reg[di]
	}
	return profiles
}

// pickIndex draws an index with probability proportional to its weight.
func pickIndex(r *splitmix.Rand, weights []int) int {
	total := 0
	for _, w := range weights {
		total += w
	}
	x := r.Intn(total)
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// pick draws one option from a weighted mix.
func pick(r *splitmix.Rand, shares []Share) string {
	weights := make([]int, len(shares))
	for i, s := range shares {
		weights[i] = s.Weight
	}
	return shares[pickIndex(r, weights)].Name
}

// SpecFor derives home i's spec from the fleet seed alone; it never looks
// at other homes, so specs can be produced in any order.
func (c Config) SpecFor(i int) HomeSpec {
	return c.specFor(device.Registry(), i)
}

// SpecForIn is SpecFor against a caller-held registry snapshot, so drivers
// deriving many specs (the timeline engine) reuse one registry copy
// instead of re-deriving it per home.
func (c Config) SpecForIn(registry []*device.Profile, i int) HomeSpec {
	return c.specFor(registry, i)
}

// specFor is SpecFor against a caller-held registry snapshot, so the fleet
// loop derives all N specs from one registry copy instead of N.
func (c Config) specFor(registry []*device.Profile, i int) HomeSpec {
	c = c.withDefaults()
	r := splitmix.New(c.Seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15)

	// Household size: pick a band by weight, then uniform within it.
	weights := make([]int, len(c.Sizes))
	for bi, b := range c.Sizes {
		weights[bi] = b.Weight
	}
	band := c.Sizes[pickIndex(&r, weights)]
	size := band.Min
	if band.Max > band.Min {
		size += r.Intn(band.Max - band.Min + 1)
	}
	if size > len(registry) {
		size = len(registry)
	}

	// Sample the device subset: partial Fisher-Yates over the registry
	// indexes, then restore Table 10 order.
	perm := make([]int, len(registry))
	for j := range perm {
		perm[j] = j
	}
	for j := 0; j < size; j++ {
		k := j + r.Intn(len(perm)-j)
		perm[j], perm[k] = perm[k], perm[j]
	}
	idx := append([]int(nil), perm[:size]...)
	sortInts(idx)
	names := make([]string, len(idx))
	for j, di := range idx {
		names[j] = registry[di].Name
	}

	return HomeSpec{
		Index:         i,
		DeviceIndexes: idx,
		Devices:       names,
		ConfigID:      pick(&r, c.Connectivity),
		Policy:        pick(&r, c.Policies),
	}
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// HomeResult is one home's measured outcome.
type HomeResult struct {
	Spec HomeSpec

	// Funnel outcomes over the home's single connectivity run, counted in
	// devices (the per-home slice of the paper's Table 3 stages).
	Devices    int
	NDP        int
	Addr       int
	GUA        int
	AAAAReq    int
	InternetV6 int
	Functional int

	// DAD compliance (§5.2.1) and EUI-64 exposure (§5.4.1) per home.
	DADSkipping int
	DADNever    int
	EUI64Assign int
	EUI64Use    int

	// FramesCaptured is the home run's analysis frame count: the frames
	// its observer streamed, which are the delivered frames.
	FramesCaptured int

	// Elapsed is the simulated time the home's runs consumed.
	Elapsed time.Duration

	// Exposure holds the WAN-vantage inbound scan under the home's
	// policy; nil for IPv4-only homes or under a Config.Sweep.
	Exposure *experiment.PolicyExposure

	// Inventory is the home's ground-truth address inventory, snapshotted
	// right after the connectivity run. The adversary subsystem scores
	// its hitlists against it and harvests its Leaked records as seeds.
	Inventory *HomeInventory
}

// runHome builds and runs one fully self-contained home. reg is the fleet
// run's shared registry snapshot (profiles are read-only during runs);
// scratch is the calling worker's recycled run infrastructure. A home
// boots once: a v6-enabled home runs its experiment with its firewall
// policy already on the router, and the WAN phase (the exposure sweep, or
// cfg.Sweep) follows on the same live home.
func runHome(cfg Config, reg []*device.Profile, spec HomeSpec, scratch *experiment.Scratch) (*HomeResult, error) {
	st := experiment.NewStudyWith(experiment.StudyOptions{
		World:           world.Build(spec.Profiles(reg)),
		MaxFramesPerRun: cfg.MaxFramesPerRun,
		Capture:         experiment.CaptureNone,
		Observe:         analysis.Streaming(),
		Telemetry:       cfg.Telemetry,
		Scratch:         scratch,
	})
	began := st.Clock.Now()
	ec, ok := experiment.ConfigByID(spec.ConfigID)
	if !ok {
		return nil, fmt.Errorf("unknown connectivity config %q", spec.ConfigID)
	}
	var pol firewall.Policy
	if ec.Router.IPv6 {
		var err error
		if pol, err = firewall.ByName(spec.Policy); err != nil {
			return nil, err
		}
		if ph, ok := pol.(firewall.Pinhole); ok && len(ph.Rules) == 0 {
			pol = firewall.Pinhole{Rules: experiment.DefaultPinholes(st.Profiles)}
		}
	}
	res, h, err := st.RunExperimentWith(ec, pol)
	if err != nil {
		return nil, err
	}
	hr := observeRun(spec, st, res, ec.Router.IPv6)
	if pol != nil {
		// The probes are the scanner's traffic, not the home's: the
		// analysis tap sees only the run above.
		h.Net.RemoveTaps()
		if cfg.Sweep != nil {
			err = cfg.Sweep(h, hr)
		} else {
			hr.Exposure, err = h.Sweep(experiment.ProbePorts(st.Profiles))
		}
		if err != nil {
			return nil, err
		}
	}
	st.Clock.Advance(time.Hour)
	st.FoldCloudMetrics()
	hr.Elapsed = st.Clock.Now().Sub(began)
	return hr, nil
}

// observeRun folds a home's connectivity run into its HomeResult: the
// funnel, DAD and EUI-64 counts from the run's streamed observations, and
// the address inventory (v6 marks a home whose router speaks IPv6).
func observeRun(spec HomeSpec, st *experiment.Study, res *experiment.RunResult, v6 bool) *HomeResult {
	st.Results = append(st.Results, res)
	ds := analysis.FromStudy(st)

	hr := &HomeResult{Spec: spec, Devices: len(st.Profiles), FramesCaptured: res.Frames()}
	obs := ds.Exps[0]
	overV6 := true
	for _, p := range st.Profiles {
		if res.Functional[p.Name] {
			hr.Functional++
		}
		d := obs.Devices[p.Name]
		if d == nil {
			continue
		}
		if d.NDP {
			hr.NDP++
		}
		if len(d.Assigned) > 0 {
			hr.Addr++
		}
		if d.HasAddr(addr.KindGUA) {
			hr.GUA++
		}
		if d.QueriedAAAA(&overV6) {
			hr.AAAAReq++
		}
		if d.InternetV6 {
			hr.InternetV6++
		}
	}
	hr.Inventory = collectInventory(spec, st, obs, v6)
	dad := ds.DADAudit()
	hr.DADSkipping = dad.DevicesSkipping
	hr.DADNever = dad.DevicesNeverDAD
	eui := ds.EUI64Exposure()
	hr.EUI64Assign = eui.Assign
	hr.EUI64Use = eui.Use
	return hr
}

// Population is a completed fleet run: per-home results in home index
// order plus the resolved configuration that produced them.
type Population struct {
	Cfg   Config
	Homes []*HomeResult
}

// Run executes the fleet: Homes independent simulated homes on a bounded
// worker pool. Results are merged in home index order, so the returned
// Population (and anything rendered from it) is byte-identical for any
// worker count.
func Run(cfg Config) (*Population, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation: ctx is checked before each home
// starts, and a cancelled fleet returns ctx.Err() with no Population —
// never a partial one.
func RunContext(ctx context.Context, cfg Config) (*Population, error) {
	cfg = cfg.withDefaults()
	if cfg.Homes <= 0 {
		return nil, fmt.Errorf("fleet: Homes must be positive, got %d", cfg.Homes)
	}
	if cfg.Telemetry != nil {
		// Gauge writes are last-write-wins, so this is set once here, on
		// the single deterministic path before the pool starts — never
		// from worker goroutines.
		cfg.Telemetry.Gauge("fleet", "homes_planned", "Homes scheduled for this fleet run.").Set(int64(cfg.Homes))
	}
	var homesDone *telemetry.Counter
	if cfg.Telemetry != nil {
		homesDone = cfg.Telemetry.Counter("fleet", "homes_completed_total", "Fleet homes simulated to completion.")
	}
	// One registry snapshot for the whole fleet: profiles are read-only
	// during runs, so every home's spec and world derive from the same
	// copy instead of deep-copying the registry twice per home.
	reg := device.Registry()
	results := make([]*HomeResult, cfg.Homes)
	errs := make([]error, cfg.Homes)
	jobs := make(chan int)
	var wg sync.WaitGroup
	workers := cfg.Workers
	if workers > cfg.Homes {
		workers = cfg.Homes
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Per-worker recycled scratch: each home's switch traffic runs
			// in the same arena, so a long fleet allocates frame storage
			// once per worker, not once per home.
			scratch := experiment.NewScratch()
			for i := range jobs {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				results[i], errs[i] = runHome(cfg, reg, cfg.specFor(reg, i), scratch)
				if hr := results[i]; hr != nil {
					if homesDone != nil {
						homesDone.Inc()
					}
					telemetry.Emit(cfg.Progress, telemetry.Event{
						Scope:   "fleet",
						ID:      fmt.Sprintf("home %d/%d", i+1, cfg.Homes),
						Detail:  fmt.Sprintf("%s, %d devices, %d/%d functional", hr.Spec.ConfigID, hr.Devices, hr.Functional, hr.Devices),
						Elapsed: hr.Elapsed,
					})
				}
			}
		}()
	}
	for i := 0; i < cfg.Homes; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	// A cancelled fleet registers nothing: the ctx error wins over any
	// per-home results already computed.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("fleet: home %d: %w", i, err)
		}
	}
	return &Population{Cfg: cfg, Homes: results}, nil
}
