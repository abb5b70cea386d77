// Package router implements the testbed's home gateway: the Linux router
// of the paper's Mon(IoT)r lab with its dnsmasq services (DHCPv4, stateless
// and stateful DHCPv6, SLAAC router advertisements with RDNSS), ARP and
// NDP responders, NAT44 toward the simulated Internet, and routed IPv6
// over a Hurricane-Electric-style tunnel prefix.
package router

import (
	"encoding/binary"
	"net/netip"

	"v6lab/internal/addr"
	"v6lab/internal/cloud"
	"v6lab/internal/conntrack"
	"v6lab/internal/dhcp4"
	"v6lab/internal/faults"
	"v6lab/internal/firewall"
	"v6lab/internal/ndp"
	"v6lab/internal/netsim"
	"v6lab/internal/packet"
)

// Network constants for the simulated LAN and WAN, chosen to mirror the
// paper's setup (§4.1): private IPv4 behind NAT, an HE-tunnel routed /64,
// and an additionally advertised ULA prefix for local-protocol devices.
var (
	LANv4Prefix = netip.MustParsePrefix("192.168.1.0/24")
	RouterV4    = netip.MustParseAddr("192.168.1.1")
	WANv4       = netip.MustParseAddr("203.0.113.2")
	GUAPrefix   = netip.MustParsePrefix("2001:470:8:100::/64")
	ULAPrefix   = netip.MustParsePrefix("fd42:6c61:6221::/64")
	RouterGUA   = netip.MustParseAddr("2001:470:8:100::1")
	RouterLLA   = netip.MustParseAddr("fe80::1")
	RouterMAC   = packet.MAC{0x02, 0x00, 0x5e, 0x00, 0x00, 0x01}
)

// natKey packs a NAT44 mapping's protocol and translated port into the
// key of Router.nat.
func natKey(proto packet.IPProtocol, natPort uint16) uint32 {
	return uint32(proto)<<16 | uint32(natPort)
}

// flowKey packs a device flow's IPv4 address, source port and protocol
// into the key of Router.natBack.
func flowKey(devIP netip.Addr, devPort uint16, proto packet.IPProtocol) uint64 {
	a := devIP.As4()
	return uint64(binary.BigEndian.Uint32(a[:]))<<24 | uint64(devPort)<<8 | uint64(proto)
}

// natEntry is the device side of a NAT44 mapping.
type natEntry struct {
	devIP   netip.Addr
	devPort uint16
}

// GUAPrefixN returns the n-th delegated /64 an ISP rotation can hand the
// home: n=0 is the boot-time GUAPrefix, each subsequent n bumps the third
// hextet (2001:470:8:100::/64 → 2001:470:9:100::/64 → …). Timeline prefix
// rotations walk this sequence so renumbered worlds stay deterministic.
func GUAPrefixN(n int) netip.Prefix {
	b := GUAPrefix.Addr().As16()
	binary.BigEndian.PutUint16(b[4:6], binary.BigEndian.Uint16(b[4:6])+uint16(n))
	return netip.PrefixFrom(netip.AddrFrom16(b), GUAPrefix.Bits())
}

// Router is the home gateway. It attaches to the LAN as a netsim host and
// reaches the simulated cloud by direct call on its WAN side.
type Router struct {
	Cfg   Config
	Cloud *cloud.Cloud

	// guaPrefix and routerGUA are the currently delegated prefix and the
	// router's address within it. They start at the package defaults and
	// move only when Renumber simulates an ISP withdrawing the delegation.
	guaPrefix netip.Prefix
	routerGUA netip.Addr

	port  *netsim.Port
	clock *netsim.Clock

	// LAN frames are decoded through the port; wanDec parses WAN-side
	// replies and injected probes while a LAN view may still be live.
	// wanBuf is the reusable buffer NAT44 translates WAN-bound IPv4
	// packets in; the scratch layer structs, messages and payload
	// buffers below back the relayed WAN replies and the DHCP and ND
	// replies, so no per-packet allocation survives in steady state. All
	// of it is single-goroutine state, like the router itself.
	wanDec  packet.Decoder
	wanBuf  []byte
	ethL    packet.Ethernet
	ip4L    packet.IPv4
	ip6L    packet.IPv6
	udpL    packet.UDP
	icmp6L  packet.ICMPv6
	rawL    packet.Raw
	dhcp4In dhcp4.Message
	ra      ndp.RouterAdvert
	// wire holds an encoded DHCPv4 reply, ndBody an outgoing ND body.
	wire   []byte
	ndBody []byte

	// dhcp4Leases maps client MAC to its assigned private address.
	dhcp4Leases map[packet.MAC]netip.Addr
	nextLease   uint8

	// dhcp6Leases maps client DUID (stringified) to its IA_NA address.
	dhcp6Leases map[string]netip.Addr
	nextV6Lease uint16

	// Neighbors is the IPv6 neighbor table the paper's port-scan
	// methodology harvests addresses from (§4.3).
	Neighbors map[netip.Addr]packet.MAC
	// ARPTable is the IPv4 equivalent.
	ARPTable map[netip.Addr]packet.MAC

	// nat maps natKey(proto, translated port) to the device flow, and
	// natBack maps flowKey(device flow) to its translated port.
	nat     map[uint32]natEntry
	natBack map[uint64]uint16
	natNext uint16

	// FW filters the IPv6 forwarding path: outbound packets establish
	// conntrack state, inbound WAN packets (cloud replies and injected
	// probes alike) must pass the policy. Attach installs an Open-policy
	// default matching the paper's unfiltered testbed; SetFirewall swaps
	// it.
	FW *firewall.Firewall

	// WANv6Tap, when set, observes every raw IPv6 packet the router
	// forwards to the WAN. Returning true consumes the packet (it is not
	// handed to the cloud) — the firewall-exposure experiment uses this
	// to play the remote scanning vantage. raw is the IP part of the LAN
	// frame being delivered, so the tap must read it synchronously and
	// keep none of it.
	WANv6Tap func(raw []byte) bool

	// Faults, when set, impairs the router's own services: RA / DHCPv6 /
	// forwarded-DNS drop schedules and the tunnel MTU clamp. Nil means the paper's well-behaved dnsmasq.
	Faults *faults.Services

	// ForwardedV4 and ForwardedV6 count packets routed to the Internet.
	ForwardedV4, ForwardedV6 int
	// PTBSent counts ICMPv6 Packet-Too-Big errors emitted by the tunnel
	// MTU clamp.
	PTBSent int
	// NATTranslations counts new NAT44 port mappings created on the
	// outbound v4 path (distinct device flows, not per-packet work).
	NATTranslations int
}

// New creates a router with the given services enabled.
func New(cfg Config, cl *cloud.Cloud) *Router {
	return &Router{
		Cfg:         cfg,
		Cloud:       cl,
		guaPrefix:   GUAPrefix,
		routerGUA:   RouterGUA,
		dhcp4Leases: make(map[packet.MAC]netip.Addr),
		dhcp6Leases: make(map[string]netip.Addr),
		Neighbors:   make(map[netip.Addr]packet.MAC),
		ARPTable:    make(map[netip.Addr]packet.MAC),
		nat:         make(map[uint32]natEntry),
		natBack:     make(map[uint64]uint16),
		natNext:     20000,
	}
}

// Attach connects the router to the LAN. Unless SetFirewall installed a
// policy first, the v6 path gets the paper's unfiltered Open firewall.
func (r *Router) Attach(n *netsim.Network) {
	r.clock = n.Clock
	r.port = n.Attach(r, RouterMAC)
	if r.FW == nil {
		r.FW = firewall.New(firewall.Open{}, n.Clock, conntrack.DefaultConfig())
	}
}

// SetFirewall installs the inbound-IPv6 firewall; call before or after
// Attach.
func (r *Router) SetFirewall(fw *firewall.Firewall) { r.FW = fw }

// DelegatedPrefix returns the GUA /64 the router currently advertises.
func (r *Router) DelegatedPrefix() netip.Prefix { return r.guaPrefix }

// Renumber simulates the ISP withdrawing the delegated prefix and handing
// the home a new one (the flash-renumbering event of RFC 8978): the router
// adopts the new prefix and its ::1 address within it, invalidates every
// stateful DHCPv6 lease (they were carved from the old prefix), and forgets
// neighbors whose addresses became bogus. Devices keep working only after
// the next RA lets them SLAAC a fresh address — the gap is the
// re-addressing outage the timeline report measures.
func (r *Router) Renumber(p netip.Prefix) {
	if p == r.guaPrefix {
		return
	}
	old := r.guaPrefix
	r.guaPrefix = p
	var iid [8]byte
	iid[7] = 1
	r.routerGUA = addr.FromPrefixIID(p, iid)
	clear(r.dhcp6Leases) // nextV6Lease keeps counting: new leases get new IIDs
	for a := range r.Neighbors {
		if old.Contains(a) {
			delete(r.Neighbors, a)
		}
	}
}

// HandleFrame implements netsim.Host.
func (r *Router) HandleFrame(frame []byte) {
	p := r.port.Decode(frame)
	if p.Ethernet == nil {
		return
	}
	switch {
	case p.ARP != nil:
		r.handleARP(p)
	case p.IPv4 != nil:
		r.learnV4(p)
		r.handleIPv4(p)
	case p.IPv6 != nil:
		r.learnV6(p)
		r.handleIPv6(p)
	}
}

func (r *Router) learnV4(p *packet.Packet) {
	src := p.IPv4.Src
	if src.IsValid() && LANv4Prefix.Contains(src) && src != RouterV4 {
		r.ARPTable[src] = p.Ethernet.Src
	}
}

func (r *Router) learnV6(p *packet.Packet) {
	src := p.IPv6.Src
	if k := addr.Classify(src); k == addr.KindLLA || k == addr.KindULA || k == addr.KindGUA {
		r.Neighbors[src] = p.Ethernet.Src
	}
}

func (r *Router) handleARP(p *packet.Packet) {
	if !r.Cfg.IPv4 || p.ARP.Op != packet.ARPRequest || p.ARP.TargetIP != RouterV4 {
		return
	}
	r.ARPTable[p.ARP.SenderIP] = p.ARP.SenderMAC
	r.transmit(
		&packet.Ethernet{Dst: p.Ethernet.Src, Src: RouterMAC, Type: packet.EtherTypeARP},
		&packet.ARP{
			Op: packet.ARPReply, SenderMAC: RouterMAC, SenderIP: RouterV4,
			TargetMAC: p.ARP.SenderMAC, TargetIP: p.ARP.SenderIP,
		})
}

// transmit builds a frame in the switch's arena and sends it onto the
// LAN. It reports whether a frame went out.
func (r *Router) transmit(layers ...packet.SerializableLayer) bool {
	return r.port.Transmit(layers...) == nil
}

// transmitUDP wraps a UDP payload in the right IP version and Ethernet
// framing and sends it, for the DHCP reply paths.
func (r *Router) transmitUDP(dstMAC packet.MAC, src, dst netip.Addr, sport, dport uint16, payload []byte) {
	var ipLayer packet.SerializableLayer = &r.ip4L
	typ := packet.EtherTypeIPv4
	if src.Is4() {
		r.ip4L = packet.IPv4{Protocol: packet.IPProtocolUDP, Src: src, Dst: dst}
	} else {
		r.ip6L = packet.IPv6{NextHeader: packet.IPProtocolUDP, Src: src, Dst: dst}
		ipLayer, typ = &r.ip6L, packet.EtherTypeIPv6
	}
	r.ethL = packet.Ethernet{Dst: dstMAC, Src: RouterMAC, Type: typ}
	r.udpL = packet.UDP{SrcPort: sport, DstPort: dport, Src: src, Dst: dst}
	r.rawL = payload
	r.transmit(&r.ethL, ipLayer, &r.udpL, &r.rawL)
}

func (r *Router) handleIPv4(p *packet.Packet) {
	if !r.Cfg.IPv4 {
		return
	}
	// DHCPv4 to the server port.
	if p.UDP != nil && p.UDP.DstPort == 67 {
		r.handleDHCPv4(p)
		return
	}
	dst := p.IPv4.Dst
	if dst == RouterV4 || dst.IsMulticast() || dst == addr.IPv4Broadcast {
		return // local traffic for the router itself; nothing else to do
	}
	if LANv4Prefix.Contains(dst) {
		return // LAN-to-LAN traffic is switched, not routed
	}
	r.forwardV4(p)
}

func (r *Router) handleIPv6(p *packet.Packet) {
	if !r.Cfg.IPv6 {
		return
	}
	if p.ICMPv6 != nil {
		r.handleNDP(p)
		// NDP handled; echo and other ICMPv6 may still be forwarded below.
		if p.ICMPv6.Type >= packet.ICMPv6TypeRouterSolicit && p.ICMPv6.Type <= packet.ICMPv6TypeNeighborAdvert {
			return
		}
	}
	if p.UDP != nil && p.UDP.DstPort == 547 {
		r.handleDHCPv6(p)
		return
	}
	dst := p.IPv6.Dst
	switch addr.Classify(dst) {
	case addr.KindGUA:
		if r.guaPrefix.Contains(dst) {
			return // on-link destination, switched not routed
		}
		r.forwardV6(p)
	default:
		// LLA/ULA/multicast destinations never leave the LAN.
	}
}

// forwardV4 NATs a LAN packet to the WAN address, hands it to the cloud,
// and translates any replies back to the device. Translation rewrites the
// packet in place, as a NAT does (RFC 3022 §4.2), rather than rebuilding
// it from layers — but in a copy: the delivered frame must stay as it
// was, because an impairment's Duplicate delivers the same bytes again.
func (r *Router) forwardV4(p *packet.Packet) {
	devIP := p.IPv4.Src
	devMAC := p.Ethernet.Src
	var devPort, natPort uint16
	var proto packet.IPProtocol
	switch {
	case p.UDP != nil:
		proto, devPort = packet.IPProtocolUDP, p.UDP.SrcPort
	case p.TCP != nil:
		proto, devPort = packet.IPProtocolTCP, p.TCP.SrcPort
	case p.ICMPv4 != nil:
		proto = packet.IPProtocolICMPv4
	default:
		return
	}
	flow := flowKey(devIP, devPort, proto)
	var ok bool
	if natPort, ok = r.natBack[flow]; !ok {
		r.natNext++
		natPort = r.natNext
		r.natBack[flow] = natPort
		// Full-cone mapping: replies from any remote endpoint on the
		// translated port reach the device.
		r.nat[natKey(proto, natPort)] = natEntry{devIP: devIP, devPort: devPort}
		r.NATTranslations++
	}
	ip := p.Ethernet.PayloadData
	r.wanBuf = append(r.wanBuf[:0], ip[:ipv4HeaderLen(ip)+len(p.IPv4.PayloadData)]...)
	natRewrite(r.wanBuf, natSrc, WANv4, natPort)
	r.ForwardedV4++
	for _, reply := range r.Cloud.HandleIP(r.wanBuf) {
		r.deliverWANReplyV4(reply, devMAC, devIP)
	}
}

// deliverWANReplyV4 translates one cloud reply back to the LAN device that
// owns its NAT port, rewriting the reply in place in the cloud's scratch
// buffer (Cloud.HandleIP allows it). ICMPv4 has no port, so echo replies
// go to devIP, the source of the request being answered.
func (r *Router) deliverWANReplyV4(raw []byte, devMAC packet.MAC, devIP netip.Addr) {
	rp := r.wanDec.ParseIP(raw)
	if rp.Err != nil || rp.IPv4 == nil {
		return
	}
	// The flaky-dnsmasq schedule applies to v4-transported answers too
	// (the AAAA-over-IPv4 pattern of §5.2.2).
	if r.Faults != nil && rp.UDP != nil && rp.UDP.SrcPort == 53 &&
		r.Faults.DropDNSReply(rp.UDP.PayloadData) {
		return
	}
	entry, ok := natEntry{devIP: devIP}, false
	switch {
	case rp.UDP != nil:
		entry, ok = r.nat[natKey(packet.IPProtocolUDP, rp.UDP.DstPort)]
	case rp.TCP != nil:
		entry, ok = r.nat[natKey(packet.IPProtocolTCP, rp.TCP.DstPort)]
	case rp.ICMPv4 != nil:
		ok = true
	}
	if !ok {
		return
	}
	mac := r.ARPTable[entry.devIP]
	if mac.IsZero() {
		mac = devMAC
	}
	ip := raw[:ipv4HeaderLen(raw)+len(rp.IPv4.PayloadData)]
	natRewrite(ip, natDst, entry.devIP, entry.devPort)
	r.relay(mac, packet.EtherTypeIPv4, ip)
}

// forwardV6 routes a LAN packet to the cloud unchanged (the paper's LAN is
// a routed /64, no NAT66), records the flow in the firewall's conntrack
// table, and relays replies to the device by neighbor lookup — replies
// traverse the inbound firewall like any other WAN packet.
func (r *Router) forwardV6(p *packet.Packet) {
	if !r.guaPrefix.Contains(p.IPv6.Src) {
		return // sources outside the delegated prefix are not routable
	}
	// The cloud and the WAN tap read the delivered frame's IP bytes in
	// place; neither keeps them.
	raw := p.Ethernet.PayloadData
	if r.Faults != nil {
		if mtu := r.Faults.TunnelMTU(); mtu > 0 && len(raw) > mtu {
			r.sendPacketTooBig(p, mtu, raw)
			return
		}
	}
	if key, flags, ok := conntrack.KeyOfV6(p.IPv6, p.TCP, p.UDP, p.ICMPv6); ok {
		r.FW.Outbound(key, flags)
	}
	r.ForwardedV6++
	if r.WANv6Tap != nil && r.WANv6Tap(raw) {
		return
	}
	for _, reply := range r.Cloud.HandleIP(raw) {
		r.deliverWANv6(reply)
	}
}

// deliverWANv6 carries one raw IPv6 packet from the WAN side onto the LAN:
// it must pass the inbound firewall, and the destination must be a known
// neighbor.
func (r *Router) deliverWANv6(raw []byte) {
	rp := r.wanDec.ParseIP(raw)
	if rp.Err != nil || rp.IPv6 == nil {
		return
	}
	if key, flags, ok := conntrack.KeyOfV6(rp.IPv6, rp.TCP, rp.UDP, rp.ICMPv6); ok {
		if !r.FW.Inbound(key, flags) {
			return
		}
	}
	// Flaky-dnsmasq schedule: a misbehaving forwarder swallows AAAA
	// answers on their way back to the LAN.
	if r.Faults != nil && rp.UDP != nil && rp.UDP.SrcPort == 53 &&
		r.Faults.DropDNSReply(rp.UDP.PayloadData) {
		return
	}
	mac, ok := r.Neighbors[rp.IPv6.Dst]
	if !ok {
		return
	}
	r.relay(mac, packet.EtherTypeIPv6, raw)
}

// relay frames a WAN packet for the LAN device at dst: the packet's bytes
// are written once, straight into the switch's arena behind the router's
// Ethernet header.
func (r *Router) relay(dst packet.MAC, typ packet.EtherType, ip []byte) {
	r.ethL = packet.Ethernet{Dst: dst, Src: RouterMAC, Type: typ}
	r.rawL = ip
	r.transmit(&r.ethL, &r.rawL)
}

// InjectWANv6 delivers an unsolicited raw IPv6 packet arriving from the
// Internet — the WAN-vantage port scan of the firewall-exposure
// experiment — subject to the inbound firewall policy.
func (r *Router) InjectWANv6(raw []byte) { r.deliverWANv6(raw) }

// sendPacketTooBig answers an oversized tunnel-bound packet with an
// ICMPv6 Packet-Too-Big carrying the clamp MTU and the head of the
// invoking packet (RFC 4443 §3.2), so PMTUD-capable stacks can
// resegment their flows.
func (r *Router) sendPacketTooBig(p *packet.Packet, mtu int, raw []byte) {
	// The error itself must fit the minimum IPv6 MTU (RFC 4443: as much
	// of the invoking packet as fits without exceeding 1280 bytes).
	const maxInvoking = 1280 - 40 - 4 - 4
	body := make([]byte, 4, 4+min(len(raw), maxInvoking))
	binary.BigEndian.PutUint32(body[:4], uint32(mtu))
	body = append(body, raw[:min(len(raw), maxInvoking)]...)
	dst := p.IPv6.Src
	if r.transmit(
		&packet.Ethernet{Dst: p.Ethernet.Src, Src: RouterMAC, Type: packet.EtherTypeIPv6},
		&packet.IPv6{NextHeader: packet.IPProtocolICMPv6, HopLimit: 64, Src: RouterLLA, Dst: dst},
		&packet.ICMPv6{Type: packet.ICMPv6TypePacketTooBig, Body: body, Src: RouterLLA, Dst: dst},
	) {
		r.PTBSent++
	}
}

// ipv4HeaderLen returns the header length (IHL) of a decoded IPv4 packet.
func ipv4HeaderLen(ip []byte) int { return int(ip[0]&0x0f) * 4 }

// The two directions of a NAT44 rewrite: outbound packets have their
// source address and port translated, inbound replies their destination.
const (
	natSrc = 0
	natDst = 1
)

// natRewrite translates an IPv4 packet in place: it replaces the source
// (dir natSrc) or destination (natDst) address with a and, for TCP and
// UDP, the matching port with port. The IPv4 header checksum is
// recomputed and the transport checksum, whose pseudo-header covers the
// address, is updated incrementally from the changed words (RFC 1624
// eqn. 3) instead of being summed again over the payload. ICMPv4 carries
// no pseudo-header, so its checksum stands.
func natRewrite(ip []byte, dir int, a netip.Addr, port uint16) {
	hdr, l4 := ip[:ipv4HeaderLen(ip)], ip[ipv4HeaderLen(ip):]
	addrField, portField := hdr[12+4*dir:16+4*dir], l4[2*dir:2+2*dir]
	na := a.As4()
	var np [2]byte
	binary.BigEndian.PutUint16(np[:], port)
	switch proto := packet.IPProtocol(hdr[9]); proto {
	case packet.IPProtocolTCP, packet.IPProtocolUDP:
		ckOff := 16
		if proto == packet.IPProtocolUDP {
			ckOff = 6
		}
		ckField := l4[ckOff : ckOff+2]
		ck := packet.AdjustChecksum(binary.BigEndian.Uint16(ckField), addrField, na[:])
		ck = packet.AdjustChecksum(ck, portField, np[:])
		if ck == 0 && proto == packet.IPProtocolUDP {
			ck = 0xffff // as UDP.SerializeTo: zero would mean "no checksum"
		}
		binary.BigEndian.PutUint16(ckField, ck)
		copy(portField, np[:])
	}
	copy(addrField, na[:])
	hdr[10], hdr[11] = 0, 0
	binary.BigEndian.PutUint16(hdr[10:12], packet.Checksum(hdr))
}
