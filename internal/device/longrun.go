package device

import (
	"net/netip"

	"v6lab/internal/cloud"
	"v6lab/internal/dhcp4"
	"v6lab/internal/dhcp6"
)

// This file holds the long-horizon surface of a device stack: the handful
// of operations the timeline engine triggers as scheduled events (lease
// renewals, RA expiry, renumbering, sleep/wake, recurring workload bursts)
// on top of the single-experiment state machine in stack.go. Everything
// here is plain single-threaded stack manipulation; the determinism of a
// week-long run comes from the engine's event ordering, not from anything
// in these methods.

// SetAsleep puts the device to sleep or wakes it. A sleeping stack drops
// every inbound frame and originates nothing; its addresses and leases
// age silently, which is exactly how battery devices miss RAs and lease
// windows in real homes.
func (s *Stack) SetAsleep(asleep bool) { s.asleep = asleep }

// Asleep reports whether the device is currently sleeping.
func (s *Stack) Asleep() bool { return s.asleep }

// V4Configured reports whether the stack holds a DHCPv4 lease right now.
func (s *Stack) V4Configured() bool { return s.v4Addr.IsValid() }

// StatefulConfigured reports whether the stack holds an IA_NA lease.
func (s *Stack) StatefulConfigured() bool { return s.statefulAddr.IsValid() }

// HasRA reports whether the stack currently has a live default router.
func (s *Stack) HasRA() bool { return s.raSeen }

// HasGUAIn reports whether the stack holds a global address out of the
// given prefix — the timeline engine's re-addressing probe after a
// renumbering.
func (s *Stack) HasGUAIn(p netip.Prefix) bool {
	for _, a := range s.guas {
		if p.Contains(a) {
			return true
		}
	}
	return s.statefulAddr.IsValid() && p.Contains(s.statefulAddr)
}

// DHCP4Acks returns the lifetime count of DHCPv4 ACKs the stack received.
// The counter survives Reset, so a renewal's success is the delta across
// the drain that follows it.
func (s *Stack) DHCP4Acks() uint64 { return s.dhcp4Acks }

// DHCP6Replies returns the lifetime count of DHCPv6 REPLYs received.
func (s *Stack) DHCP6Replies() uint64 { return s.dhcp6Replies }

// RenewV4 runs one DHCPv4 renewal attempt: a unicast-style REQUEST for the
// current lease, or a fresh DISCOVER when the lease already expired (the
// INIT-REBOOT vs INIT split of RFC 2131 §4.3.2).
func (s *Stack) RenewV4() {
	if s.mode == ModeV6Only || s.asleep {
		return
	}
	s.dhcp4XID++
	if s.v4Addr.IsValid() {
		s.sendDHCP4(dhcp4.Request, s.v4Addr)
	} else {
		s.sendDHCP4(dhcp4.Discover, netip.Addr{})
	}
}

// ExpireV4 drops the DHCPv4 lease without network activity: the valid
// lifetime ran out while renewals kept failing (or the device slept
// through the whole lease window).
func (s *Stack) ExpireV4() { s.v4Addr = netip.Addr{} }

// RenewV6 runs one DHCPv6 RENEW for the stack's IA_NA lease. After the
// ISP renumbers, the server's lease table is empty and the REPLY carries
// an address out of the new prefix.
func (s *Stack) RenewV6() {
	if !s.statefulAddr.IsValid() || !s.Prof.StatefulDHCPv6 || s.asleep {
		return
	}
	src := s.dhcp6Source()
	if !src.IsValid() {
		return
	}
	m := &dhcp6.Message{
		Type: dhcp6.Renew, TxID: uint32(400 + s.expSeq),
		ClientID: dhcp6.DUIDFromMAC(s.MAC), ServerID: s.dhcp6ServerID,
		RequestedOptions: []uint16{dhcp6.OptDNSServers},
		IANA: &dhcp6.IANA{IAID: 1, Addrs: []dhcp6.IAAddr{{
			Addr: s.statefulAddr, PreferredLifetime: 3600, ValidLifetime: 7200,
		}}},
	}
	s.sendDHCP6(m, src)
}

// LoseRA expires the default router: the device slept past the RA's
// router lifetime (1800 s) and wakes with v6 connectivity down until the
// next periodic advertisement re-arms it.
func (s *Stack) LoseRA() { s.raSeen = false }

// SolicitRouter sends a router solicitation, the recovery step a waking
// or renumbered device takes instead of waiting out the periodic RA
// interval.
func (s *Stack) SolicitRouter() {
	if !s.ndpActive() || s.asleep {
		return
	}
	if len(s.llas) > 0 {
		s.sendRS(s.llas[0])
	} else {
		s.sendRS(netip.IPv6Unspecified())
	}
}

// Renumber reacts to the ISP withdrawing the delegated prefix: every
// address out of the old prefix is dropped (its valid lifetime was
// zeroed), the stateful lease carved from it dies with it, and the RA
// state is cleared so the next advertisement re-runs SLAAC against the
// new prefix. The device is unreachable over v6 until that happens —
// the re-addressing outage the timeline report measures.
func (s *Stack) Renumber(old, new netip.Prefix) {
	s.prefixes.GUA = new
	kept := s.guas[:0]
	for _, a := range s.guas {
		if !old.Contains(a) {
			kept = append(kept, a)
		}
	}
	s.guas = kept
	if old.Contains(s.statefulAddr) {
		s.statefulAddr = netip.Addr{}
	}
	if s.dnsV6.IsValid() && old.Contains(s.dnsV6) {
		s.dnsV6 = netip.Addr{}
	}
	s.raSeen = false
}

// AbortStaleConns kills live connections sourced from a withdrawn prefix
// (their return path is gone) and drops in-flight v6 DNS queries, the
// "live flows cut mid-transfer" effect of flash renumbering. It returns
// how many connections died.
func (s *Stack) AbortStaleConns(old netip.Prefix) int {
	n := 0
	for _, key := range s.connOrder {
		if c := s.conns[key]; c != nil && c.state < 3 && old.Contains(c.src) {
			c.state = 3
			n++
		}
	}
	for id, pq := range s.pendingDNS {
		if pq.overV6 {
			delete(s.pendingDNS, id)
		}
	}
	return n
}

// RunBurst re-runs the device's primary function once: the essential
// destinations are re-contacted (their per-experiment dedup is cleared)
// plus the periodic NTP sync. After the network drains, Functional()
// reports whether the burst succeeded — the per-day functionality signal
// of the timeline report.
func (s *Stack) RunBurst(cl *cloud.Cloud) {
	if s.asleep {
		return
	}
	// Week-long runs accumulate finished connections; prune them so the
	// conn table stays proportional to in-flight work.
	if len(s.conns) > 64 {
		kept := s.connOrder[:0]
		for _, key := range s.connOrder {
			if c := s.conns[key]; c != nil && c.state < 3 {
				kept = append(kept, key)
			} else {
				delete(s.conns, key)
			}
		}
		s.connOrder = kept
	}
	// Byte budgets as RunWorkload computes them, so burst flows look like
	// the bounded-transaction flows the analysis already understands.
	s.setByteBudgets()
	for i := range s.Plan.Specs {
		sp := &s.Plan.Specs[i]
		if !sp.Essential {
			continue
		}
		s.specs[i] = 0
		s.startSpec(i, cl)
	}
	s.sendNTP()
}
