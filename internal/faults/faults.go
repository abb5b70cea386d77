// Package faults is the testbed's deterministic impairment model. The
// paper's headline finding is devices *breaking* under imperfect IPv6 —
// v6-only outages (§5.2), a tunnel-mediated WAN with a smaller MTU
// (§4.1), and misbehaving router services — yet a perfect simulated
// network can only show that bricks happen, not how. This package
// reproduces the *how*: per-link frame loss/duplication/reordering driven
// by a seeded PRNG, an MTU clamp on the router's HE-style tunnel path
// (oversized packets elicit ICMPv6 Packet-Too-Big, so flows must honor
// PMTUD or break), and router-service fault schedules (dropped RAs,
// DHCPv6 replies and AAAA answers).
//
// Everything is byte-deterministic per (seed, profile): the PRNG is a
// fixed splitmix64 sequence and schedules are counters — two runs with
// the same seed produce identical pcaps.
package faults

import (
	"fmt"
	"hash/fnv"

	"v6lab/internal/dnsmsg"
	"v6lab/internal/netsim"
	"v6lab/internal/splitmix"
)

// Profile is one named impairment configuration. The zero value (and any
// profile for which Active reports false) means a perfect network: the
// experiment runner then takes exactly the unimpaired code path, keeping
// the default run byte-identical to a build without this package.
type Profile struct {
	// Name labels the profile in reports ("lossy-wifi").
	Name string
	// Seed drives every probabilistic decision. Two runs with the same
	// (Seed, Profile) are byte-identical; 0 lets the caller's default
	// apply (the Lab uses its WithSeed value, falling back to 1).
	Seed uint64

	// --- Link impairments (the netsim switch) ---

	// LossPermille / DupPermille / ReorderPermille are per-frame
	// probabilities in parts per thousand: 30 ≈ 3% of frames vanish in
	// the air (never reaching the router's capture tap), are delivered
	// twice, or are pushed to the back of the delivery queue.
	LossPermille, DupPermille, ReorderPermille int

	// --- Tunnel path (the router's WAN side) ---

	// TunnelMTU clamps the router's v6 tunnel egress: LAN-to-WAN IPv6
	// packets larger than this are dropped and answered with an ICMPv6
	// Packet-Too-Big carrying the clamp, as a Hurricane-Electric-style
	// 6in4 tunnel does. 0 means no clamp.
	TunnelMTU int

	// --- Router-service fault schedules (flaky dnsmasq) ---

	// DropEveryNthRA / DropEveryNthDHCPv6 / DropEveryNthAAAA suppress the
	// first and then every Nth router advertisement, DHCPv6 reply, or
	// forwarded DNS answer carrying an AAAA record (1 = drop all,
	// 0 = off). Dropping the *first* occurrence is deliberate: it is the
	// schedule that exercises client retry machinery.
	DropEveryNthRA, DropEveryNthDHCPv6, DropEveryNthAAAA int
}

// Active reports whether the profile impairs anything. Inactive profiles
// (e.g. Clean) make the study skip the impairment plumbing entirely.
func (p Profile) Active() bool {
	return p.LossPermille > 0 || p.DupPermille > 0 || p.ReorderPermille > 0 ||
		p.TunnelMTU > 0 || p.DropEveryNthRA > 0 || p.DropEveryNthDHCPv6 > 0 ||
		p.DropEveryNthAAAA > 0
}

// The resilience grid's profiles.

// Clean is the unimpaired baseline; runs under it are byte-identical to
// runs with no fault profile at all.
func Clean() Profile { return Profile{Name: "clean"} }

// LossyWiFi models a congested 2.4 GHz link: 3% loss, 0.5% duplication,
// 1% reordering, uniformly over every LAN frame. It carries no seed of
// its own: the frame fates follow the caller's (the lab's WithSeed).
func LossyWiFi() Profile {
	return Profile{Name: "lossy-wifi", LossPermille: 30, DupPermille: 5, ReorderPermille: 10}
}

// ClampedTunnel models the paper's HE-tunnel WAN with a 1280-byte path
// MTU: the router answers oversized v6 egress with Packet-Too-Big, and
// devices must perform PMTUD or lose their large flows.
func ClampedTunnel() Profile { return Profile{Name: "clamped-tunnel", TunnelMTU: 1280} }

// FlakyDNSMasq models a misbehaving router daemon: the first and every
// 2nd RA and DHCPv6 reply vanish, and the first and every 3rd forwarded
// AAAA answer is swallowed.
func FlakyDNSMasq() Profile {
	return Profile{Name: "flaky-dnsmasq", DropEveryNthRA: 2, DropEveryNthDHCPv6: 2, DropEveryNthAAAA: 3}
}

// Grid is the default resilience grid, in report order.
func Grid() []Profile {
	return []Profile{Clean(), LossyWiFi(), ClampedTunnel(), FlakyDNSMasq()}
}

// ByName resolves a grid profile by name.
func ByName(name string) (Profile, error) {
	for _, p := range Grid() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("faults: unknown profile %q (want clean|lossy-wifi|clamped-tunnel|flaky-dnsmasq)", name)
}

// SubSeed derives a stable per-scope seed (e.g. per experiment ID) from a
// base seed, so each of the six Table 2 runs gets an independent but
// reproducible impairment sequence.
func SubSeed(seed uint64, scope string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(scope))
	return seed ^ h.Sum64() ^ 0x6c696e6b // "link"
}

// Link applies the profile's frame-level impairments on the netsim
// switch. It implements netsim.Impairment.
type Link struct {
	p       Profile
	r       splitmix.Rand
	dropped int
}

// NewLink builds the link impairment for one experiment run.
func NewLink(p Profile, seed uint64) *Link {
	return &Link{p: p, r: splitmix.New(seed)}
}

// Verdict implements netsim.Impairment: one PRNG draw per frame decides
// its fate. Draw order is delivery order, which the switch keeps
// deterministic, so the whole run is reproducible.
func (l *Link) Verdict(frame []byte) netsim.Verdict {
	d := l.r.Intn(1000) // permille
	switch {
	case d < l.p.LossPermille:
		l.dropped++
		return netsim.Drop
	case d < l.p.LossPermille+l.p.DupPermille:
		return netsim.Duplicate
	case d < l.p.LossPermille+l.p.DupPermille+l.p.ReorderPermille:
		return netsim.Defer
	}
	return netsim.Deliver
}

// Dropped reports how many frames the link swallowed.
func (l *Link) Dropped() int { return l.dropped }

// Services applies the profile's router-service fault schedules. The
// router consults it before sending an RA or DHCPv6 reply and before
// forwarding a WAN DNS answer; each accessor advances its own counter so
// the schedule is a pure function of call order.
type Services struct {
	p Profile

	ras, dhcp6s, aaaas int
	// RAsDropped etc. count suppressed service messages for diagnostics.
	RAsDropped, DHCPv6Dropped, AAAADropped int
}

// NewServices builds the service fault schedule for one experiment run.
func NewServices(p Profile) *Services { return &Services{p: p} }

// nthDrop advances a counter and applies the "first, then every Nth"
// schedule (1 = always drop).
func nthDrop(n int, count *int) bool {
	if n <= 0 {
		return false
	}
	*count++
	return n == 1 || *count%n == 1
}

// DropRA reports whether this router advertisement must be suppressed.
func (s *Services) DropRA() bool {
	if nthDrop(s.p.DropEveryNthRA, &s.ras) {
		s.RAsDropped++
		return true
	}
	return false
}

// DropDHCPv6 reports whether this DHCPv6 reply must be suppressed.
func (s *Services) DropDHCPv6() bool {
	if nthDrop(s.p.DropEveryNthDHCPv6, &s.dhcp6s) {
		s.DHCPv6Dropped++
		return true
	}
	return false
}

// DropDNSReply inspects one forwarded DNS payload (a WAN answer heading
// back onto the LAN) and reports whether the schedule swallows it. Only
// answers actually carrying an AAAA record count toward — and are
// affected by — the AAAA schedule, mirroring a resolver that chokes on
// v6 records specifically.
func (s *Services) DropDNSReply(payload []byte) bool {
	if s.p.DropEveryNthAAAA <= 0 {
		return false
	}
	m, err := dnsmsg.Unpack(payload)
	if err != nil || !m.Response {
		return false
	}
	hasAAAA := false
	for _, rr := range m.Answers {
		if rr.Type == dnsmsg.TypeAAAA || rr.Type == dnsmsg.TypeHTTPS || rr.Type == dnsmsg.TypeSVCB {
			hasAAAA = true
			break
		}
	}
	if !hasAAAA {
		return false
	}
	if nthDrop(s.p.DropEveryNthAAAA, &s.aaaas) {
		s.AAAADropped++
		return true
	}
	return false
}

// TunnelMTU returns the tunnel clamp (0 = none).
func (s *Services) TunnelMTU() int { return s.p.TunnelMTU }
