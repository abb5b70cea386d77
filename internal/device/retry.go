package device

import (
	"encoding/binary"
	"net/netip"
	"sort"

	"v6lab/internal/cloud"
	"v6lab/internal/dhcp4"
	"v6lab/internal/dhcp6"
	"v6lab/internal/packet"
)

// This file gives the stack the retransmit behavior its real counterpart
// has — RS retransmission (RFC 4861 §6.3.7), DHCP retries, DNS retries,
// TCP retransmission, and PMTUD (RFC 8201) — so a run under a faults
// profile degrades the way a real device would instead of wedging on the
// first lost frame. None of it runs on a clean network: the experiment
// driver only invokes the Retry* passes when an impairment is installed,
// and Packet-Too-Big messages are only ever emitted by a clamped tunnel.

// sendPayload (re)transmits the connection's application payload from its
// recorded starting sequence number, segmented to the current path MTU.
func (s *Stack) sendPayload(key connKey, c *conn) {
	seg := c.segLimit()
	seq := c.payloadStart
	for off := 0; off < c.payloadLen; off += seg {
		end := min(off+seg, c.payloadLen)
		s.sendTCP(c.src, c.dst, key.sport, c.dport, packet.TCPFlagPSH|packet.TCPFlagACK, seq, c.lastAck, tlsSegment{hello: c.hello, off: off, end: end})
		seq += uint32(end - off)
	}
	c.seq = seq
}

// handlePacketTooBig implements the client half of PMTUD: learn the
// reported MTU for the connection named by the invoking packet and
// retransmit its payload in smaller segments. Stacks with NoPMTUD ignore
// the error — behind a clamped tunnel their large v6 flows blackhole.
func (s *Stack) handlePacketTooBig(body []byte) {
	if s.Prof.NoPMTUD {
		return
	}
	// Body: 4-byte MTU, then as much of the invoking IPv6 packet as fit.
	// Parse the fixed header + TCP ports by offset; the invoking packet is
	// deliberately truncated so a full parse would reject it.
	if len(body) < 4+44 {
		return
	}
	mtu := int(binary.BigEndian.Uint32(body[:4]))
	inner := body[4:]
	if inner[0]>>4 != 6 || inner[6] != byte(packet.IPProtocolTCP) {
		return
	}
	src := netip.AddrFrom16([16]byte(inner[8:24]))
	dst := netip.AddrFrom16([16]byte(inner[24:40]))
	if !s.ownsAddr(src) {
		return
	}
	key := connKey{dst: dst, sport: binary.BigEndian.Uint16(inner[40:42])}
	c, ok := s.conns[key]
	if !ok || c.payloadLen == 0 || mtu <= 0 {
		return
	}
	if c.pmtu != 0 && c.pmtu <= mtu {
		// Already adapted to this clamp (each oversized segment of the
		// original volley elicits its own Packet-Too-Big).
		return
	}
	c.pmtu = mtu
	s.retransmits++
	s.sendPayload(key, c)
}

// RetryConfig retransmits unanswered configuration requests: DHCPv4
// DISCOVER while no lease, RS while no RA arrived, and the pending DHCPv6
// transaction. It returns how many retransmissions were sent; the caller
// drains the network between rounds and stops when a round sends nothing.
func (s *Stack) RetryConfig() int {
	n := 0
	if s.mode != ModeV6Only && !s.v4Addr.IsValid() {
		s.dhcp4XID++
		s.sendDHCP4(dhcp4.Discover, netip.Addr{})
		n++
	}
	if s.ndpActive() && s.raSeen == nil {
		src := netip.IPv6Unspecified()
		if s.assignsAddr() && s.Prof.LLA && len(s.llas) > 0 {
			src = s.llas[0]
		}
		s.sendRS(src)
		n++
	}
	if s.dhcp6Pending && s.raSeen != nil {
		if src := s.dhcp6Source(); src.IsValid() {
			switch {
			case s.raSeen.Managed && s.Prof.StatefulDHCPv6 && !s.statefulAddr.IsValid():
				s.sendDHCP6(&dhcp6.Message{
					Type: dhcp6.Solicit, TxID: uint32(100 + s.expSeq), ClientID: dhcp6.DUIDFromMAC(s.MAC),
					RequestedOptions: []uint16{dhcp6.OptDNSServers},
					IANA:             &dhcp6.IANA{IAID: 1},
				}, src)
				n++
			case (s.raSeen.OtherConfig || s.raSeen.Managed) && s.Prof.StatelessDHCPv6 && !s.dnsV6.IsValid():
				s.sendDHCP6(&dhcp6.Message{
					Type: dhcp6.InfoRequest, TxID: uint32(200 + s.expSeq), ClientID: dhcp6.DUIDFromMAC(s.MAC),
					RequestedOptions: []uint16{dhcp6.OptDNSServers},
				}, src)
				n++
			default:
				// Everything the transaction could deliver already arrived.
				s.dhcp6Pending = false
			}
		}
	}
	s.retransmits += n
	return n
}

// RetryWorkload retransmits unanswered workload traffic: pending DNS
// queries and stalled TCP connections (lost SYN or unacknowledged data),
// each bounded to two retries. Iteration order is fixed — ascending query
// ID, then connection creation order — so retries are deterministic.
func (s *Stack) RetryWorkload() int {
	n := 0
	ids := make([]int, 0, len(s.pendingDNS))
	for id := range s.pendingDNS {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		pq := s.pendingDNS[uint16(id)]
		if pq.attempts >= 2 {
			continue
		}
		pq.attempts++
		s.pendingDNS[uint16(id)] = pq
		if s.resendDNS(uint16(id), pq) {
			n++
		}
	}
	for _, key := range s.connOrder {
		c := s.conns[key]
		switch {
		case c.state == 0 && c.synRetries < 2:
			c.synRetries++
			s.sendTCP(c.src, c.dst, key.sport, c.dport, packet.TCPFlagSYN, c.seq, 0, tlsSegment{})
			n++
		case c.state == 1 && c.dataRetries < 2 && c.payloadLen > 0:
			c.dataRetries++
			s.sendPayload(key, c)
			n++
		}
	}
	s.retransmits += n
	return n
}

// resendDNS re-emits a pending query with its original ID over its
// original transport; it reports whether a retransmission went out.
func (s *Stack) resendDNS(id uint16, pq pendingQuery) bool {
	sp := &s.Plan.Specs[pq.specIdx]
	wire, err := s.packQuery(id, sp.Name, pq.qtype)
	if err != nil {
		return false
	}
	if pq.overV6 {
		src := s.privacyGUA()
		if pq.viaEUI64 && s.Prof.EUI64ForDNS && s.eui64GUA().IsValid() {
			src = s.eui64GUA()
		}
		if !src.IsValid() || !s.dnsV6.IsValid() {
			return false
		}
		s.sendUDP(src, s.dnsV6, 53, wire)
		return true
	}
	if !s.v4Addr.IsValid() {
		return false
	}
	s.sendUDP(s.v4Addr, cloud.DNSv4, 53, wire)
	return true
}

// Retransmits reports how many retry transmissions the stack made this
// experiment (always 0 on a clean network).
func (s *Stack) Retransmits() int { return s.retransmits }

// FailureStage classifies a non-functional run as the earliest broken
// stage of the configuration→DNS→data funnel; it returns "ok" when the
// device's primary function worked.
func (s *Stack) FailureStage() string {
	if s.Functional() {
		return "ok"
	}
	if s.mode != ModeV6Only {
		// In IPv4-only and dual-stack networks the essential exchanges ride
		// IPv4, so a failure means that path broke.
		if !s.v4Addr.IsValid() {
			return "no-v4-config"
		}
		return s.workloadFailure()
	}
	switch {
	case !s.ndpActive():
		return "no-ipv6-support"
	case s.raSeen == nil:
		return "no-ra"
	case !s.hasGUA():
		return "no-address"
	case !s.dnsV6.IsValid():
		return "no-dns"
	}
	return s.workloadFailure()
}

func (s *Stack) workloadFailure() string {
	if len(s.pendingDNS) > 0 {
		return "dns-unanswered"
	}
	for _, c := range s.conns {
		if c.state < 2 {
			return "data-stalled"
		}
	}
	return "no-data"
}
