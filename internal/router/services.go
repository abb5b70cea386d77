package router

import (
	"encoding/binary"
	"net/netip"
	"time"

	"v6lab/internal/addr"
	"v6lab/internal/cloud"
	"v6lab/internal/dhcp4"
	"v6lab/internal/dhcp6"
	"v6lab/internal/ndp"
	"v6lab/internal/packet"
)

// Values every DHCPv4 reply and RA carries, built once: the LAN's subnet
// mask and the resolvers handed out. Replies share the server lists
// read-only.
var (
	lanMask      = netip.AddrFrom4([4]byte{255, 255, 255, 0})
	dnsV4Servers = []netip.Addr{cloud.DNSv4}
	dnsV6Servers = []netip.Addr{cloud.DNSv6}
)

// handleDHCPv4 implements the dnsmasq DHCPv4 server: DISCOVER→OFFER,
// REQUEST→ACK, with router, mask, DNS, and lease options.
func (r *Router) handleDHCPv4(p *packet.Packet) {
	msg := &r.dhcp4In
	if err := dhcp4.UnmarshalInto(msg, p.UDP.PayloadData); err != nil {
		return
	}
	lease, ok := r.dhcp4Leases[msg.ClientMAC]
	if !ok {
		r.nextLease++
		lease = netip.AddrFrom4([4]byte{192, 168, 1, 100 + r.nextLease})
		r.dhcp4Leases[msg.ClientMAC] = lease
	}
	var replyType uint8
	switch msg.Type {
	case dhcp4.Discover:
		replyType = dhcp4.Offer
	case dhcp4.Request:
		replyType = dhcp4.ACK
	default:
		return
	}
	reply := dhcp4.Message{
		Op: 2, XID: msg.XID, ClientMAC: msg.ClientMAC, Type: replyType,
		YourIP: lease, ServerIP: RouterV4, ServerID: RouterV4,
		SubnetMask: lanMask,
		Router:     RouterV4,
		DNS:        dnsV4Servers,
		LeaseSecs:  3600,
	}
	wire, err := reply.AppendMarshal(r.wire[:0])
	if err != nil {
		return
	}
	r.wire = wire
	r.ARPTable[lease] = msg.ClientMAC
	r.transmitUDP(msg.ClientMAC, RouterV4, lease, dhcp4.ServerPort, dhcp4.ClientPort, wire)
}

// LeaseFor returns the DHCPv4 lease assigned to a MAC, if any.
func (r *Router) LeaseFor(mac packet.MAC) (netip.Addr, bool) {
	a, ok := r.dhcp4Leases[mac]
	return a, ok
}

// Lease4Count reports how many DHCPv4 leases the router handed out.
func (r *Router) Lease4Count() int { return len(r.dhcp4Leases) }

// Lease6Count reports how many DHCPv6 IA_NA leases the router handed out.
func (r *Router) Lease6Count() int { return len(r.dhcp6Leases) }

// handleNDP answers router solicitations with the configured RA, answers
// neighbor solicitations for the router's own addresses, and learns
// neighbors from advertisements.
func (r *Router) handleNDP(p *packet.Packet) {
	switch p.ICMPv6.Type {
	case packet.ICMPv6TypeRouterSolicit:
		if _, err := ndp.ParseRouterSolicit(p.ICMPv6.Body); err == nil {
			r.SendRouterAdvert()
		}
	case packet.ICMPv6TypeNeighborSolicit:
		ns, err := ndp.ParseNeighborSolicit(p.ICMPv6.Body)
		if err != nil {
			return
		}
		if !ns.SourceLinkAddr.IsZero() && p.IPv6.Src.IsValid() && addr.Classify(p.IPv6.Src) != addr.KindUnspecified {
			r.Neighbors[p.IPv6.Src] = ns.SourceLinkAddr
		}
		if ns.Target == RouterLLA || ns.Target == r.routerGUA {
			r.sendNA(p.Ethernet.Src, p.IPv6.Src, ns.Target)
		}
	case packet.ICMPv6TypeNeighborAdvert:
		if na, err := ndp.ParseNeighborAdvert(p.ICMPv6.Body); err == nil && !na.TargetLinkAddr.IsZero() {
			r.Neighbors[na.Target] = na.TargetLinkAddr
		}
	}
}

// SendRouterAdvert multicasts the RA describing the experiment's
// configuration: SLAAC prefixes for the GUA and ULA /64s, RDNSS pointing
// at the IPv6 resolver, and M/O flags per the DHCPv6 services enabled.
func (r *Router) SendRouterAdvert() {
	if !r.Cfg.IPv6 {
		return
	}
	if r.Faults != nil && r.Faults.DropRA() {
		return
	}
	ra := &r.ra
	*ra = ndp.RouterAdvert{
		HopLimit:       64,
		Managed:        r.Cfg.StatefulDHCPv6,
		OtherConfig:    r.Cfg.StatelessDHCPv6,
		RouterLifetime: 1800 * time.Second,
		MTU:            1500,
		SourceLinkAddr: RouterMAC,
		Prefixes: append(ra.Prefixes[:0],
			ndp.PrefixInfo{Prefix: r.guaPrefix, OnLink: true, AutonomousFlag: true,
				ValidLifetime: 86400 * time.Second, PreferredLifetime: 14400 * time.Second},
			ndp.PrefixInfo{Prefix: ULAPrefix, OnLink: true, AutonomousFlag: true,
				ValidLifetime: 86400 * time.Second, PreferredLifetime: 86400 * time.Second}),
		RDNSS: ra.RDNSS[:0],
	}
	if r.Cfg.RDNSS() {
		ra.RDNSS = append(ra.RDNSS, ndp.RDNSS{Lifetime: 1800 * time.Second, Servers: dnsV6Servers})
	}
	r.ndBody = ra.AppendBody(r.ndBody[:0])
	r.sendND(addr.MulticastMAC(addr.AllNodesMulticast), addr.AllNodesMulticast, packet.ICMPv6TypeRouterAdvert)
}

// sendND sends the ND message in r.ndBody from the router's link-local
// address through its reused layers.
func (r *Router) sendND(dstMAC packet.MAC, dst netip.Addr, typ uint8) {
	r.ethL = packet.Ethernet{Dst: dstMAC, Src: RouterMAC, Type: packet.EtherTypeIPv6}
	r.ip6L = packet.IPv6{NextHeader: packet.IPProtocolICMPv6, HopLimit: 255, Src: RouterLLA, Dst: dst}
	r.icmp6L = packet.ICMPv6{Type: typ, Body: r.ndBody, Src: RouterLLA, Dst: dst}
	r.transmit(&r.ethL, &r.ip6L, &r.icmp6L)
}

func (r *Router) sendNA(dstMAC packet.MAC, dstIP, target netip.Addr) {
	if !dstIP.IsValid() || addr.Classify(dstIP) == addr.KindUnspecified {
		// DAD probe for one of our own addresses: defend it by multicast NA.
		dstIP = addr.AllNodesMulticast
		dstMAC = addr.MulticastMAC(dstIP)
	}
	na := ndp.NeighborAdvert{Router: true, Solicited: true, Override: true, Target: target, TargetLinkAddr: RouterMAC}
	r.ndBody = na.AppendBody(r.ndBody[:0])
	r.sendND(dstMAC, dstIP, packet.ICMPv6TypeNeighborAdvert)
}

// handleDHCPv6 implements the dnsmasq DHCPv6 server in the modes Table 2
// configures: stateless answers INFORMATION-REQUEST with DNS servers;
// stateful additionally runs SOLICIT→ADVERTISE→REQUEST→REPLY with IA_NA
// assignment out of the GUA prefix.
func (r *Router) handleDHCPv6(p *packet.Packet) {
	msg, err := dhcp6.Unmarshal(p.UDP.PayloadData)
	if err != nil {
		return
	}
	reply := &dhcp6.Message{
		TxID:     msg.TxID,
		ClientID: msg.ClientID,
		ServerID: dhcp6.DUIDFromMAC(RouterMAC),
	}
	switch msg.Type {
	case dhcp6.InfoRequest:
		if !r.Cfg.StatelessDHCPv6 && !r.Cfg.StatefulDHCPv6 {
			return
		}
		reply.Type = dhcp6.Reply
		if msg.WantsDNS() {
			reply.DNS = dnsV6Servers
		}
	case dhcp6.Solicit, dhcp6.Request, dhcp6.Renew:
		if !r.Cfg.StatefulDHCPv6 || msg.IANA == nil {
			return
		}
		if msg.Type == dhcp6.Solicit {
			reply.Type = dhcp6.Advertise
		} else {
			// REQUEST and RENEW both confirm the binding with a REPLY; after
			// a renumbering cleared the lease table, a RENEW reassigns from
			// the new prefix the way dnsmasq's stateless lease logic does.
			reply.Type = dhcp6.Reply
		}
		lease := r.leaseV6(string(msg.ClientID))
		reply.IANA = &dhcp6.IANA{IAID: msg.IANA.IAID, Addrs: []dhcp6.IAAddr{{
			Addr: lease, PreferredLifetime: 3600, ValidLifetime: 7200,
		}}}
		if msg.WantsDNS() {
			reply.DNS = dnsV6Servers
		}
	default:
		return
	}
	if r.Faults != nil && r.Faults.DropDHCPv6() {
		return
	}
	wire, err := reply.Marshal()
	if err != nil {
		return
	}
	r.transmitUDP(p.Ethernet.Src, RouterLLA, p.IPv6.Src, dhcp6.ServerPort, dhcp6.ClientPort, wire)
}

// leaseV6 assigns a stable IA_NA address from the GUA prefix per DUID.
func (r *Router) leaseV6(duid string) netip.Addr {
	if a, ok := r.dhcp6Leases[duid]; ok {
		return a
	}
	r.nextV6Lease++
	var iid [8]byte
	iid[5] = 0x10 // 2001:470:8:100::10xx range, away from SLAAC IIDs
	binary.BigEndian.PutUint16(iid[6:8], r.nextV6Lease)
	a := addr.FromPrefixIID(r.guaPrefix, iid)
	r.dhcp6Leases[duid] = a
	return a
}
