package adversary

import (
	"net/netip"
	"sort"

	"v6lab/internal/addr"
	"v6lab/internal/fleet"
	"v6lab/internal/packet"
)

// This file is the hitlist generator: the attacker's only knowledge is
// the ISP's /48, the vendor OUI database, the low-byte convention, and
// whatever the homes leaked. Candidates are scored against the fleet's
// ground-truth inventories; nothing else crosses from defender to
// attacker.

// Source says how the attacker arrived at a candidate address.
type Source int

// The generator's three candidate sources.
const (
	// SourceEUI64 is vendor-database MAC expansion: OUI × device-index
	// suffix, expanded through the modified EUI-64 transform.
	SourceEUI64 Source = iota
	// SourceLowByte is the prefix::1..prefix::N sweep.
	SourceLowByte
	// SourceLeak is passive harvesting: addresses the home's own traffic
	// exposed to a WAN observer (EUI-64 DNS/data/NTP sources, addresses
	// seen by AAAA-bearing tracker domains).
	SourceLeak
)

// String names the source as the discovery report does.
func (s Source) String() string {
	switch s {
	case SourceEUI64:
		return "eui64-expansion"
	case SourceLowByte:
		return "low-byte-sweep"
	}
	return "leak-harvest"
}

// Finding is one discovered address: a candidate that matched a real one.
type Finding struct {
	// WAN is the address as the attacker knows it (in the home's ISP
	// /64); LAN its testbed-internal equivalent used for probing.
	WAN, LAN netip.Addr
	Class    addr.IIDClass
	Source   Source
	Device   string
}

// HomeDiscovery is the generator's outcome against one home.
type HomeDiscovery struct {
	Index      int
	Policy     string
	V6         bool
	Candidates int // candidates generated against this home's prefix
	AddrsTotal int // ground-truth global addresses the home held
	Found      []Finding
	// Missed counts ground-truth addresses no candidate matched;
	// MissedRandom the privacy-addressed subset (the generator's designed
	// blind spot).
	Missed, MissedRandom int
}

// lowByteSweep is how many prefix::N identifiers the generator tries in
// each low-byte window.
const lowByteSweep = 256

// discoverHome runs the generator against one home's ground truth.
func discoverHome(inv *fleet.HomeInventory, ouis [][3]byte) *HomeDiscovery {
	hd := &HomeDiscovery{Index: inv.Index, Policy: inv.Policy, V6: inv.V6}

	// Ground truth keyed by interface identifier: within one /64 the IID
	// is the whole guessing game.
	type truth struct {
		lan    netip.Addr
		class  addr.IIDClass
		device string
	}
	actual := map[[8]byte]truth{}
	for _, d := range inv.Devices {
		for _, r := range d.Addrs {
			actual[addr.InterfaceID(r.Addr)] = truth{lan: r.Addr, class: r.Class, device: d.Name}
		}
	}
	hd.AddrsTotal = len(actual)

	found := map[[8]byte]bool{}
	try := func(iid [8]byte, src Source) {
		hd.Candidates++
		t, ok := actual[iid]
		if !ok || found[iid] {
			return
		}
		found[iid] = true
		hd.Found = append(hd.Found, Finding{
			WAN:    wanFromLAN(inv.Index, t.lan),
			LAN:    t.lan,
			Class:  t.class,
			Source: src,
			Device: t.device,
		})
	}

	// 1. EUI-64 expansion: the registry's MAC convention is OUI + the
	// fixed 0x10,0x20 administrative bytes + a device index, so each OUI
	// block collapses to 256 candidates.
	for _, oui := range ouis {
		for idx := 0; idx < 256; idx++ {
			mac := packet.MAC{oui[0], oui[1], oui[2], 0x10, 0x20, byte(idx)}
			try(addr.EUI64FromMAC(mac), SourceEUI64)
		}
	}

	// 2. Low-byte sweep: prefix::1..prefix::N, plus the same window at
	// the conventional CPE DHCPv6 pool offsets (pools at ::1:0, ::10:0
	// and ::64:0 are common firmware defaults — sequential leases there
	// fall to the sweep just like plain low-byte addresses).
	for _, base := range [...]byte{0x00, 0x01, 0x10, 0x64} {
		for n := 1; n <= lowByteSweep; n++ {
			try(addr.LowByteIID(base, uint16(n)), SourceLowByte)
		}
	}

	// 3. Leak harvest: exact addresses a passive WAN observer collected —
	// the only way a privacy address ever lands on the hitlist.
	for _, d := range inv.Devices {
		for _, r := range d.Addrs {
			if r.Leaked {
				try(addr.InterfaceID(r.Addr), SourceLeak)
			}
		}
	}

	sort.Slice(hd.Found, func(i, j int) bool { return hd.Found[i].LAN.Less(hd.Found[j].LAN) })
	for iid, t := range actual {
		if !found[iid] {
			hd.Missed++
			if t.class == addr.IIDRandom {
				hd.MissedRandom++
			}
		}
	}
	return hd
}

// DiscoveryReport aggregates the generator's population-wide score.
type DiscoveryReport struct {
	Homes, HomesV6 int
	Candidates     int
	AddrsTotal     int
	Found          int
	// By source.
	FoundEUI64, FoundLowByte, FoundLeak int
	// FoundRandom counts discovered privacy addresses — reachable only
	// through the leak harvest, never through generation.
	FoundRandom          int
	Missed, MissedRandom int
}

func summarizeDiscovery(ds []*HomeDiscovery) DiscoveryReport {
	var r DiscoveryReport
	r.Homes = len(ds)
	for _, hd := range ds {
		if hd.V6 {
			r.HomesV6++
		}
		r.Candidates += hd.Candidates
		r.AddrsTotal += hd.AddrsTotal
		r.Found += len(hd.Found)
		r.Missed += hd.Missed
		r.MissedRandom += hd.MissedRandom
		for _, f := range hd.Found {
			switch f.Source {
			case SourceEUI64:
				r.FoundEUI64++
			case SourceLowByte:
				r.FoundLowByte++
			case SourceLeak:
				r.FoundLeak++
			}
			if f.Class == addr.IIDRandom {
				r.FoundRandom++
			}
		}
	}
	return r
}
