package adversary

import (
	"net/netip"
	"sort"
	"time"

	"v6lab/internal/device"
	"v6lab/internal/experiment"
	"v6lab/internal/fleet"
	"v6lab/internal/splitmix"
)

// This file is the campaign: the discovered population swept through each
// home's firewall on the simulated clock. Each home is swept inside the
// fleet's per-home job, on the live home; results merge in home-index
// order, so the campaign report is byte-identical at any worker count.
// The campaign seed only shuffles the attacker's per-home probe order —
// which matters exactly when a probe budget truncates the hitlist.

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
	// Elapsed is the simulated time the home's probes consumed.
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
	// Elapsed is total simulated probe time across homes; it is part of
	// the fleet homes' own Elapsed, which Report.Elapsed sums.
	Elapsed time.Duration
}

// campaignHome sweeps one home's discovered targets through its firewall.
// It runs inside the fleet's per-home job on the live home the fleet has
// just booted with its policy and run through its workload, so conntrack
// holds the devices' outbound flows and the addresses discovery scored
// against are the addresses that answer.
func campaignHome(cfg Config, h *experiment.Home, hr *fleet.HomeResult, hd *HomeDiscovery, ports []uint16) (*HomeCampaign, error) {
	index := hr.Spec.Index
	hc := &HomeCampaign{Index: index, Policy: hr.Spec.Policy}
	if len(hd.Found) == 0 {
		hc.Skipped = true
		return hc, nil
	}
	hc.Functional = hr.Functional

	// The attacker shuffles probe order per home (scan-detection evasion);
	// under a budget the shuffle decides which targets make the cut.
	order := make([]int, len(hd.Found))
	for i := range order {
		order[i] = i
	}
	rng := splitmix.New(cfg.CampaignSeed ^ (uint64(index)+1)*0x9e3779b97f4a7c15)
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
	byLAN := map[netip.Addr]*Finding{}
	for _, oi := range order[:maxTargets] {
		f := &hd.Found[oi]
		targets = append(targets, experiment.TargetProbe{Addr: f.LAN, Ports: ports})
		byLAN[f.LAN] = f
	}

	// Collapse per-address answers to per-device reachability: union of
	// open ports, lowest answering WAN address, sorted by device name.
	type devHit struct {
		wan   netip.Addr
		ports map[uint16]bool
	}
	byDev := map[string]*devHit{}
	began := h.Net.Clock.Now()
	sent, err := h.Probe(targets, func(lan netip.Addr, port uint16) {
		f := byLAN[lan]
		if f == nil {
			return
		}
		d := byDev[f.Device]
		if d == nil {
			d = &devHit{wan: f.WAN, ports: map[uint16]bool{}}
			byDev[f.Device] = d
		}
		if f.WAN.Less(d.wan) {
			d.wan = f.WAN
		}
		d.ports[port] = true
	})
	if err != nil {
		return nil, err
	}
	hc.Elapsed = h.Net.Clock.Now().Sub(began)
	hc.TargetsProbed = len(targets)
	hc.ProbesSent = sent

	names := make([]string, 0, len(byDev))
	for name := range byDev {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d := byDev[name]
		ps := make([]uint16, 0, len(d.ports))
		for p := range d.ports {
			ps = append(ps, p)
		}
		sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
		hc.Reachable = append(hc.Reachable, ReachableDevice{
			Home: index, Device: name, WAN: d.wan, OpenPorts: ps,
		})
	}
	return hc, nil
}

// summarizeCampaign merges the per-home outcomes, already in home-index
// order, into the population report.
func summarizeCampaign(ports []uint16, homes []*HomeCampaign) CampaignReport {
	rep := CampaignReport{Ports: ports, Homes: homes}
	perPolicy := map[string]*PolicyCampaign{}
	for _, hc := range homes {
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
	return rep
}
