package adversary

import (
	"context"
	"fmt"
	"net/netip"
	"runtime"
	"sort"
	"sync"
	"time"

	"v6lab/internal/device"
	"v6lab/internal/experiment"
	"v6lab/internal/firewall"
	"v6lab/internal/fleet"
	"v6lab/internal/splitmix"
	"v6lab/internal/telemetry"
)

// This file is the campaign scheduler: the discovered population swept
// through each home's firewall on the simulated clock. Homes run on a
// bounded worker pool; results merge in home-index order, so the campaign
// report is byte-identical at any worker count. The campaign seed only
// shuffles the attacker's per-home probe order — which matters exactly
// when a probe budget truncates the hitlist.

// CampaignPorts returns the attacker's probe list: the classic IoT sweep
// set plus every TCP service port any registry device exposes over IPv6 —
// the "product fingerprint database" a real campaign works from. Sorted,
// deduplicated, identical for every home.
func CampaignPorts() []uint16 {
	seen := map[uint16]bool{}
	for _, p := range []uint16{22, 23, 80, 443, 1883, 5000} {
		seen[p] = true
	}
	for _, prof := range device.Registry() {
		for _, p := range prof.OpenTCPv6 {
			seen[p] = true
		}
	}
	out := make([]uint16, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ReachableDevice is one device the campaign compromised a path to:
// inbound-reachable through its home's firewall on at least one port.
type ReachableDevice struct {
	Home   int
	Device string
	// WAN is the lowest discovered WAN address that answered.
	WAN netip.Addr
	// OpenPorts is the union of answering ports across the device's
	// discovered addresses, sorted.
	OpenPorts []uint16
}

// HomeCampaign is one home's scan outcome.
type HomeCampaign struct {
	Index  int
	Policy string
	// Skipped marks homes the campaign never scanned: no discovered
	// targets, or no IPv6 on the WAN at all.
	Skipped bool
	// Truncated marks homes where the probe budget cut the hitlist.
	Truncated                 bool
	TargetsProbed, ProbesSent int
	Reachable                 []ReachableDevice
	// Functional devices under scan (egress must never regress).
	Functional int
	// Elapsed is the simulated time the home's scan consumed.
	Elapsed time.Duration
}

// PolicyCampaign aggregates campaign outcomes for one firewall policy.
type PolicyCampaign struct {
	Policy                           string
	Homes, HomesScanned              int
	TargetsProbed, ProbesSent        int
	DevicesReachable, PortsReachable int
}

// CampaignReport is the population-wide campaign outcome.
type CampaignReport struct {
	Ports                            []uint16
	HomesScanned, HomesSkipped       int
	TargetsProbed, ProbesSent        int
	DevicesReachable, PortsReachable int
	// PerPolicy rows are sorted by policy name.
	PerPolicy []PolicyCampaign
	// Homes holds every per-home outcome in home-index order (the worm
	// phase consumes it).
	Homes []*HomeCampaign
	// Elapsed is total simulated scan time across homes.
	Elapsed time.Duration
}

// campaignHome rebuilds one home and sweeps its discovered targets
// through its firewall. The rebuild boots byte-identically to the fleet's
// original run (same profiles, same connectivity config, same V6Seq), so
// the addresses discovery scored against are the addresses that answer.
// The fleet retains each home's immutable world (RetainWorlds), so the
// rebuild reuses its plans and primed cloud registry outright — only the
// per-run state (stacks, switch, router) is reconstructed, on the calling
// worker's recycled scratch.
func campaignHome(cfg Config, hr *fleet.HomeResult, hd *HomeDiscovery, ports []uint16, scratch *experiment.Scratch) (*HomeCampaign, error) {
	spec := hr.Spec
	hc := &HomeCampaign{Index: spec.Index, Policy: spec.Policy}
	ec, ok := experiment.ConfigByID(spec.ConfigID)
	if !ok {
		return nil, fmt.Errorf("unknown connectivity config %q", spec.ConfigID)
	}
	if !ec.Router.IPv6 || len(hd.Found) == 0 {
		hc.Skipped = true
		return hc, nil
	}

	st := experiment.NewStudyWith(experiment.StudyOptions{
		World:           hr.World,
		MaxFramesPerRun: cfg.Fleet.MaxFramesPerRun,
		// The campaign scores probe answers, not frames: no capture, no
		// analysis tap.
		Capture:   experiment.CaptureNone,
		Telemetry: cfg.Telemetry,
		Scratch:   scratch,
	})
	began := st.Clock.Now()

	pol, err := firewall.ByName(spec.Policy)
	if err != nil {
		return nil, err
	}
	if ph, ok := pol.(firewall.Pinhole); ok && len(ph.Rules) == 0 {
		pol = firewall.Pinhole{Rules: experiment.DefaultPinholes(st.Profiles)}
	}

	// The attacker shuffles probe order per home (scan-detection evasion);
	// under a budget the shuffle decides which targets make the cut.
	order := make([]int, len(hd.Found))
	for i := range order {
		order[i] = i
	}
	rng := splitmix.New(cfg.CampaignSeed ^ (uint64(spec.Index)+1)*0x9e3779b97f4a7c15)
	for i := len(order) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	maxTargets := len(order)
	if cfg.ProbeBudget > 0 {
		if m := cfg.ProbeBudget / len(ports); m < maxTargets {
			maxTargets = m
			hc.Truncated = true
		}
	}
	targets := make([]experiment.TargetProbe, 0, maxTargets)
	wanFor := map[netip.Addr]netip.Addr{}
	for _, oi := range order[:maxTargets] {
		f := hd.Found[oi]
		targets = append(targets, experiment.TargetProbe{Addr: f.LAN, Ports: ports})
		wanFor[f.LAN] = f.WAN
	}

	te, err := st.RunTargetedExposure(ec, pol, targets)
	if err != nil {
		return nil, err
	}
	st.FoldCloudMetrics()
	hc.TargetsProbed = te.AddrsProbed
	hc.ProbesSent = te.ProbesSent
	hc.Functional = te.FunctionalDevices

	// Collapse per-address answers to per-device reachability: union of
	// open ports, lowest answering WAN address, sorted by device name.
	type devHit struct {
		wan   netip.Addr
		ports map[uint16]bool
	}
	byDev := map[string]*devHit{}
	for lan, openPorts := range te.Open {
		name := te.Device[lan]
		if name == "" {
			continue
		}
		h := byDev[name]
		if h == nil {
			h = &devHit{wan: wanFor[lan], ports: map[uint16]bool{}}
			byDev[name] = h
		}
		if w := wanFor[lan]; w.Less(h.wan) {
			h.wan = w
		}
		for _, p := range openPorts {
			h.ports[p] = true
		}
	}
	names := make([]string, 0, len(byDev))
	for name := range byDev {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := byDev[name]
		ps := make([]uint16, 0, len(h.ports))
		for p := range h.ports {
			ps = append(ps, p)
		}
		sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
		hc.Reachable = append(hc.Reachable, ReachableDevice{
			Home: spec.Index, Device: name, WAN: h.wan, OpenPorts: ps,
		})
	}
	hc.Elapsed = st.Clock.Now().Sub(began)
	return hc, nil
}

// runCampaign sweeps every home on a bounded worker pool and merges the
// outcomes in home-index order.
func runCampaign(ctx context.Context, cfg Config, pop *fleet.Population, ds []*HomeDiscovery) (*CampaignReport, error) {
	ports := CampaignPorts()
	workers := cfg.Fleet.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pop.Homes) {
		workers = len(pop.Homes)
	}
	results := make([]*HomeCampaign, len(pop.Homes))
	errs := make([]error, len(pop.Homes))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := experiment.NewScratch()
			for i := range jobs {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				results[i], errs[i] = campaignHome(cfg, pop.Homes[i], ds[i], ports, scratch)
				if hc := results[i]; hc != nil && !hc.Skipped {
					telemetry.Emit(cfg.Progress, telemetry.Event{
						Scope:   "adversary",
						ID:      fmt.Sprintf("campaign %d/%d", i+1, len(pop.Homes)),
						Detail:  fmt.Sprintf("%s, %d targets, %d devices reachable", hc.Policy, hc.TargetsProbed, len(hc.Reachable)),
						Elapsed: hc.Elapsed,
					})
				}
			}
		}()
	}
	for i := range pop.Homes {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("adversary: campaign home %d: %w", i, err)
		}
	}

	rep := &CampaignReport{Ports: ports, Homes: results}
	perPolicy := map[string]*PolicyCampaign{}
	for _, hc := range results {
		pc := perPolicy[hc.Policy]
		if pc == nil {
			pc = &PolicyCampaign{Policy: hc.Policy}
			perPolicy[hc.Policy] = pc
		}
		pc.Homes++
		if hc.Skipped {
			rep.HomesSkipped++
			continue
		}
		pc.HomesScanned++
		rep.HomesScanned++
		rep.TargetsProbed += hc.TargetsProbed
		rep.ProbesSent += hc.ProbesSent
		rep.DevicesReachable += len(hc.Reachable)
		pc.TargetsProbed += hc.TargetsProbed
		pc.ProbesSent += hc.ProbesSent
		pc.DevicesReachable += len(hc.Reachable)
		for _, rd := range hc.Reachable {
			rep.PortsReachable += len(rd.OpenPorts)
			pc.PortsReachable += len(rd.OpenPorts)
		}
		rep.Elapsed += hc.Elapsed
	}
	names := make([]string, 0, len(perPolicy))
	for name := range perPolicy {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rep.PerPolicy = append(rep.PerPolicy, *perPolicy[name])
	}
	return rep, nil
}
