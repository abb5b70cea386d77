package fleet

import (
	"net/netip"

	"v6lab/internal/addr"
	"v6lab/internal/analysis"
	"v6lab/internal/experiment"
	"v6lab/internal/packet"
)

// This file exports each home's ground-truth address inventory to the WAN
// vantage. The adversary subsystem consumes it two ways: the full record
// is the answer key its hitlists are scored against, and the Leaked
// subset is what a passive observer (tracker-side logs, DNS AAAA
// harvesting) would hand the attacker as discovery seeds. The leak rules
// are grounded in what the home actually did on the wire during its run —
// not in what the attacker is allowed to know.

// AddrRecord is one global address a device holds, classified by hitlist
// predictability and flagged when the home's own traffic leaked it.
type AddrRecord struct {
	Addr  netip.Addr
	Class addr.IIDClass
	// Leaked marks addresses a WAN-side observer harvests passively:
	// EUI-64 addresses the device used for DNS/data/NTP (the paper's
	// Figure 5 exposures), and the preferred source address of a device
	// that talked to an AAAA-bearing tracker domain over v6.
	Leaked bool
}

// DeviceInventory is one device's WAN-relevant ground truth.
type DeviceInventory struct {
	Name  string
	MAC   packet.MAC
	Addrs []AddrRecord
	// OpenTCPv6 are the ports reachable from the WAN when the firewall
	// lets a probe through; OpenTCPv4 the LAN-only v4 services NAT used
	// to shield — an attacker already inside the home reaches both.
	OpenTCPv6, OpenTCPv4 []uint16
	Functional           bool
}

// HomeInventory is the per-home inventory the adversary subsystem scores
// against: which addresses exist, which are predictable, which leaked,
// and which firewall policy guards them.
type HomeInventory struct {
	Index    int
	ConfigID string
	Policy   string
	// V6 reports whether the home's router offered IPv6 at all; discovery
	// against a v4-only home can only ever come up empty.
	V6      bool
	Devices []DeviceInventory
}

// collectInventory snapshots the home's address ground truth right after
// its connectivity run, while the stacks still hold their assigned
// addresses and before any exposure re-run resets them.
func collectInventory(spec HomeSpec, st *experiment.Study, obs *analysis.ExpObs, v6 bool) *HomeInventory {
	inv := &HomeInventory{
		Index:    spec.Index,
		ConfigID: spec.ConfigID,
		Policy:   spec.Policy,
		V6:       v6,
		Devices:  make([]DeviceInventory, 0, len(st.Stacks)),
	}
	for i, s := range st.Stacks {
		p := st.Profiles[i]
		pl := st.World.Plans[i]

		// Did this device talk v6 to an AAAA-bearing tracker domain? If
		// so its preferred source address is sitting in tracker logs.
		trackerV6 := false
		if d := obs.Devices[p.Name]; d != nil && d.InternetV6 {
			for _, sp := range pl.Specs {
				if sp.Tracker && sp.HasAAAA {
					trackerV6 = true
					break
				}
			}
		}
		euiLeaks := p.EUI64ForDNS || p.EUI64ForData || p.EUI64ForNTP
		preferred := s.PreferredSourceGUA()

		di := DeviceInventory{
			Name:       p.Name,
			MAC:        s.MAC,
			OpenTCPv6:  append([]uint16(nil), p.OpenTCPv6...),
			OpenTCPv4:  append([]uint16(nil), p.OpenTCPv4...),
			Functional: s.Functional(),
		}
		for _, a := range s.GlobalAddrs() {
			rec := AddrRecord{Addr: a, Class: addr.ClassifyIID(addr.InterfaceID(a))}
			if rec.Class == addr.IIDEUI64 && euiLeaks {
				rec.Leaked = true
			}
			if trackerV6 && a == preferred {
				rec.Leaked = true
			}
			di.Addrs = append(di.Addrs, rec)
		}
		inv.Devices = append(inv.Devices, di)
	}
	return inv
}
