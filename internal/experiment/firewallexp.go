package experiment

import (
	"fmt"
	"net/netip"
	"sort"

	"v6lab/internal/addr"
	"v6lab/internal/conntrack"
	"v6lab/internal/device"
	"v6lab/internal/firewall"
	"v6lab/internal/packet"
	"v6lab/internal/router"
	"v6lab/internal/scan"
	"v6lab/internal/telemetry"
)

// WANScannerV6 is the remote vantage the firewall-exposure experiment
// scans from: an Internet host outside the testbed's routed /64, standing
// in for the §6 attacker who learned (or guessed) device addresses.
var WANScannerV6 = netip.MustParseAddr("2001:db8::5ca9")

// PolicyExposure summarises the WAN-vantage §5.4.2 re-scan under one
// inbound-IPv6 firewall policy.
type PolicyExposure struct {
	Policy string
	// Pinholes lists the static rules, for pinhole policies.
	Pinholes []string

	// DevicesProbed counts devices holding at least one routable GUA;
	// AddrsProbed the scanned addresses.
	DevicesProbed, AddrsProbed int
	// DevicesReachable and PortsReachable count devices answering at
	// least one probe and distinct (device, port) pairs answering.
	DevicesReachable, PortsReachable int
	// OpenByDevice maps device name to the inbound-reachable ports.
	OpenByDevice map[string][]uint16

	// FunctionalDevices counts devices whose outbound cloud workload
	// still completed under this policy (it must not regress: egress and
	// return traffic are never filtered).
	FunctionalDevices int

	// Firewall and conntrack counters at the end of the run.
	FW    firewall.Stats
	Flows int
	CT    conntrack.Stats
}

// FirewallReport is the policy-comparison experiment's result.
type FirewallReport struct {
	// Ports is the probe list (the §5.4.2 deterministic port set).
	Ports []uint16
	// Policies holds one exposure row per policy, in run order.
	Policies []PolicyExposure
}

// Exposure returns the row for a policy name, or nil.
func (r *FirewallReport) Exposure(policy string) *PolicyExposure {
	for i := range r.Policies {
		if r.Policies[i].Policy == policy {
			return &r.Policies[i]
		}
	}
	return nil
}

// DefaultPinholes models the holes a PCP/UPnP-speaking device (or a user
// forwarding ports by hand) would punch: one TCP rule per service port
// that any device exposes over IPv6 only — in the testbed, the Samsung
// Fridge's three high ports, the paper's one v6-only exposure.
func DefaultPinholes(profiles []*device.Profile) []firewall.Rule {
	seen := map[uint16]bool{}
	var rules []firewall.Rule
	for _, p := range profiles {
		for _, port := range diffPorts(p.OpenTCPv6, p.OpenTCPv4) {
			if !seen[port] {
				seen[port] = true
				rules = append(rules, firewall.Rule{Prefix: router.GUAPrefix, Proto: packet.IPProtocolTCP, Port: port})
			}
		}
	}
	sort.Slice(rules, func(i, j int) bool { return rules[i].Port < rules[j].Port })
	return rules
}

// DefaultFirewallPolicies returns the three policies the comparison mode
// runs: the paper's open router, RFC 6092 stateful default-deny, and
// default-deny with the testbed's default pinholes.
func DefaultFirewallPolicies(profiles []*device.Profile) []firewall.Policy {
	return []firewall.Policy{
		firewall.Open{},
		firewall.StatefulDefaultDeny{},
		firewall.Pinhole{Rules: DefaultPinholes(profiles)},
	}
}

// PolicyByName resolves a firewall policy name ("open", "stateful",
// "pinhole"); a pinhole policy without rules gets the testbed's default
// holes for profiles.
func PolicyByName(name string, profiles []*device.Profile) (firewall.Policy, error) {
	p, err := firewall.ByName(name)
	if err != nil {
		return nil, err
	}
	if ph, ok := p.(firewall.Pinhole); ok && len(ph.Rules) == 0 {
		p = firewall.Pinhole{Rules: DefaultPinholes(profiles)}
	}
	return p, nil
}

// RunFirewallExposure re-runs the §5.4.2 port scan from a WAN vantage
// under each policy: every probe must traverse the router's inbound
// firewall instead of being switched on-LAN. Each policy gets a fresh
// boot of the dual-stack network, a full workload pass (so conntrack
// holds the devices' outbound flows), then a SYN sweep of every routable
// GUA the router's neighbor table knows.
func (st *Study) RunFirewallExposure(policies []firewall.Policy) (*FirewallReport, error) {
	// Dual-stack (stateful), as in RunPortScan: everything live.
	return st.RunFirewallExposureUnder(Configs[len(Configs)-1], policies)
}

// RunFirewallExposureUnder is RunFirewallExposure with an explicit
// connectivity configuration, booting cfg instead of dual-stack stateful.
func (st *Study) RunFirewallExposureUnder(cfg Config, policies []firewall.Policy) (*FirewallReport, error) {
	ports := ProbePorts(st.Profiles)
	rep := &FirewallReport{Ports: ports}
	for _, pol := range policies {
		began := st.Clock.Now()
		pe, err := st.runExposure(cfg, pol, ports)
		if err != nil {
			return nil, err
		}
		rep.Policies = append(rep.Policies, *pe)
		telemetry.Emit(st.opts.Progress, telemetry.Event{
			Scope:   "firewall",
			ID:      pe.Policy,
			Detail:  fmt.Sprintf("%d/%d devices reachable, %d ports open", pe.DevicesReachable, pe.DevicesProbed, pe.PortsReachable),
			Elapsed: st.Clock.Now().Sub(began),
		})
	}
	return rep, nil
}

// runExposure boots an unfaulted home with pol on the router's
// inbound-IPv6 path and runs the workload, so conntrack holds the devices'
// outbound flows, then sweeps it from the WAN vantage.
func (st *Study) runExposure(cfg Config, pol firewall.Policy, ports []uint16) (*PolicyExposure, error) {
	h := st.NewHome(cfg, pol, "")
	if err := h.Boot(); err != nil {
		return nil, err
	}
	if err := h.Workload(); err != nil {
		return nil, err
	}
	return h.Sweep(ports)
}

// Sweep probes the booted home from the WAN vantage through its firewall:
// a SYN to each of ports on every routable GUA in the router's neighbor
// table, in address order. It runs on the live home after its workload,
// so conntrack holds the devices' outbound flows, and reports what
// answered under the home's policy. The home must have been built with a
// policy. Every frame the sweep causes reaches the home's taps; callers
// whose taps must see only the workload remove them first.
func (h *Home) Sweep(ports []uint16) (*PolicyExposure, error) {
	st, rt, fw := h.st, h.Router, h.Firewall
	pol := fw.Policy()
	pe := &PolicyExposure{Policy: pol.Name(), OpenByDevice: map[string][]uint16{}}
	if ph, ok := pol.(firewall.Pinhole); ok {
		for _, r := range ph.Rules {
			pe.Pinholes = append(pe.Pinholes, r.String())
		}
	}
	for _, s := range st.Stacks {
		if s.Functional() {
			pe.FunctionalDevices++
		}
	}

	// Target list: every routable GUA in the neighbor table, attributed
	// back to its device, in deterministic address order.
	var targets []TargetProbe
	addrDev := map[netip.Addr]string{}
	probedDevs := map[string]bool{}
	for a, m := range rt.Neighbors {
		if addr.Classify(a) != addr.KindGUA || !router.GUAPrefix.Contains(a) {
			continue
		}
		prof := st.World.MACToDevice[m]
		if prof == nil {
			continue
		}
		targets = append(targets, TargetProbe{Addr: a, Ports: ports})
		addrDev[a] = prof.Name
		probedDevs[prof.Name] = true
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].Addr.Less(targets[j].Addr) })
	pe.AddrsProbed = len(targets)
	pe.DevicesProbed = len(probedDevs)

	open := map[string]map[uint16]bool{}
	if _, err := h.Probe(targets, func(src netip.Addr, port uint16) {
		if dev := addrDev[src]; dev != "" {
			if open[dev] == nil {
				open[dev] = map[uint16]bool{}
			}
			open[dev][port] = true
		}
	}); err != nil {
		return nil, err
	}

	for dev, set := range open {
		var list []uint16
		for p := range set {
			list = append(list, p)
		}
		sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
		pe.OpenByDevice[dev] = list
		pe.DevicesReachable++
		pe.PortsReachable += len(list)
	}
	pe.FW = fw.Stats()
	pe.Flows = fw.Table.Len()
	pe.CT = fw.Table.Stats()
	if st.tm != nil {
		st.tm.foldFirewall(pe)
		// Cloud queries fold as a delta: this picks up whatever the home
		// served since the study's last fold.
		st.tm.foldCloud(st.Cloud)
	}
	return pe, nil
}

// TargetProbe is one WAN probe target: an address in the testbed's routed
// /64 and the TCP ports probed on it.
type TargetProbe struct {
	Addr  netip.Addr
	Ports []uint16
}

// Probe is the home's one WAN probe loop. It injects a SYN from the WAN
// vantage at the router for each port of each target, in order, draining
// the home after each target, and reports every SYN-ACK that makes it back
// out through the firewall to open. Addresses the home never assigned
// simply never answer. Source ports cycle from 40000 in probe order
// (40000 + sent%20000), so the same targets always produce the same
// frames. It returns the number of SYNs injected.
func (h *Home) Probe(targets []TargetProbe, open func(src netip.Addr, port uint16)) (sent int, err error) {
	rt := h.Router
	// The WAN tap plays the scanner: it consumes packets addressed to the
	// vantage and reports SYN-ACKs.
	col := &scan.Collector{Vantage: WANScannerV6, OnSYNACK: open}
	rt.WANv6Tap = col.Tap
	defer func() { rt.WANv6Tap = nil }()

	var syn scan.SYNv6
	for _, tgt := range targets {
		for _, dport := range tgt.Ports {
			raw, err := syn.Build(WANScannerV6, tgt.Addr, uint16(40000+sent%20000), dport, 9)
			if err != nil {
				return sent, err
			}
			sent++
			rt.InjectWANv6(raw)
		}
		if err := h.Drain(); err != nil {
			return sent, err
		}
	}
	return sent, nil
}
