package experiment

import (
	"net/netip"
	"sort"

	"v6lab/internal/addr"
	"v6lab/internal/firewall"
	"v6lab/internal/router"
	"v6lab/internal/scan"
)

// This file is the experiment-layer half of the adversary subsystem: a
// WAN-vantage scan driven by an attacker-supplied hitlist instead of the
// router's own neighbor table. The §5.4.2 exposure scan (firewallexp.go)
// models an attacker who already knows every address; RunTargetedExposure
// models one who only knows what discovery produced — probes against
// guessed-wrong addresses burn budget and hit nothing.

// TargetProbe is one hitlist entry: a candidate address and the ports the
// campaign probes on it.
type TargetProbe struct {
	Addr  netip.Addr
	Ports []uint16
}

// TargetedExposure reports a hitlist scan through one home's firewall.
type TargetedExposure struct {
	Policy string
	// AddrsProbed counts hitlist entries probed; ProbesSent the SYNs
	// injected at the WAN port.
	AddrsProbed, ProbesSent int
	// Open maps each responding address to its sorted open ports.
	Open map[netip.Addr][]uint16
	// Device attributes every routable address in the home's neighbor
	// table to its device name — the ground truth the caller uses to tie
	// responding addresses back to devices.
	Device map[netip.Addr]string
	// FunctionalDevices counts devices whose outbound workload completed
	// under this policy (egress must never regress).
	FunctionalDevices int
}

// RunTargetedExposure boots the home under cfg with pol installed, runs
// the workload (so conntrack holds outbound state, exactly as in the
// §5.4.2 re-scan), then probes the attacker's hitlist in the given order.
// Targets the home never assigned simply never answer. The probe stream
// is deterministic: sport cycles from 40000 in hitlist order, so the same
// hitlist always produces the same frames.
func (st *Study) RunTargetedExposure(cfg Config, pol firewall.Policy, targets []TargetProbe) (*TargetedExposure, error) {
	h := st.NewHome(cfg, pol, "")
	if err := h.Boot(); err != nil {
		return nil, err
	}
	if err := h.Workload(); err != nil {
		return nil, err
	}
	rt := h.Router

	te := &TargetedExposure{
		Policy: pol.Name(),
		Open:   map[netip.Addr][]uint16{},
		Device: map[netip.Addr]string{},
	}
	for a, m := range rt.Neighbors {
		if addr.Classify(a) != addr.KindGUA || !router.GUAPrefix.Contains(a) {
			continue
		}
		if prof := st.MACToDevice[m]; prof != nil {
			te.Device[a] = prof.Name
		}
	}
	for _, s := range st.Stacks {
		if s.Functional() {
			te.FunctionalDevices++
		}
	}

	open := map[netip.Addr]map[uint16]bool{}
	col := &scan.Collector{Vantage: WANScannerV6, OnSYNACK: func(src netip.Addr, port uint16) {
		if open[src] == nil {
			open[src] = map[uint16]bool{}
		}
		open[src][port] = true
	}}
	rt.WANv6Tap = col.Tap
	defer func() { rt.WANv6Tap = nil }()

	sport := 0
	for _, tgt := range targets {
		te.AddrsProbed++
		for _, dport := range tgt.Ports {
			raw, err := scan.BuildSYNv6(WANScannerV6, tgt.Addr, uint16(40000+sport%20000), dport, 9)
			if err != nil {
				return nil, err
			}
			sport++
			te.ProbesSent++
			rt.InjectWANv6(raw)
		}
		if err := h.Drain(); err != nil {
			return nil, err
		}
	}

	for a, set := range open {
		list := make([]uint16, 0, len(set))
		for p := range set {
			list = append(list, p)
		}
		sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
		te.Open[a] = list
	}
	return te, nil
}
