// Package scan implements the active port-scanning experiment of §4.3: an
// nmap-equivalent on-LAN scanner that discovers live IPv6 addresses with
// an all-nodes ICMPv6 echo, then runs TCP SYN scans and UDP probes against
// each device address over both families.
package scan

import (
	"net/netip"
	"sort"

	"v6lab/internal/addr"
	"v6lab/internal/netsim"
	"v6lab/internal/packet"
)

// Scanner is the probing host.
type Scanner struct {
	MAC  packet.MAC
	V4   netip.Addr
	LLA  netip.Addr
	port *netsim.Port

	// discovery results: address -> responding MAC
	found map[netip.Addr]packet.MAC
	// probe results for the in-flight scan
	synAck map[uint16]bool
	rst    map[uint16]bool
	icmpUn map[uint16]bool

	// innerDec parses the invoking packet quoted inside ICMP unreachable
	// bodies while the port's view of the frame is live.
	innerDec packet.Decoder
}

// New creates a scanner with testbed-reserved addresses.
func New() *Scanner {
	return &Scanner{
		MAC: packet.MAC{0x02, 0x5c, 0xa9, 0x00, 0x00, 0xfe},
		V4:  netip.MustParseAddr("192.168.1.250"),
		LLA: netip.MustParseAddr("fe80::5ca9"),
	}
}

// Attach connects the scanner to the LAN.
func (sc *Scanner) Attach(n *netsim.Network) {
	sc.port = n.Attach(sc, sc.MAC)
	sc.found = map[netip.Addr]packet.MAC{}
}

// HandleFrame implements netsim.Host.
func (sc *Scanner) HandleFrame(frame []byte) {
	p := sc.port.Decode(frame)
	if p.Err != nil || p.Ethernet == nil {
		return
	}
	switch {
	case p.ICMPv6 != nil && p.ICMPv6.Type == packet.ICMPv6TypeEchoReply:
		sc.found[p.IPv6.Src] = p.Ethernet.Src
	case p.TCP != nil && p.DstIP() == sc.V4 || p.TCP != nil && p.IPv6 != nil && p.IPv6.Dst == sc.LLA:
		switch {
		case p.TCP.HasFlag(packet.TCPFlagSYN | packet.TCPFlagACK):
			sc.synAck[p.TCP.SrcPort] = true
		case p.TCP.HasFlag(packet.TCPFlagRST):
			sc.rst[p.TCP.SrcPort] = true
		}
	case p.ICMPv6 != nil && p.ICMPv6.Type == packet.ICMPv6TypeDestUnreachable:
		// Body: 4 unused bytes, then the invoking IPv6 packet.
		if inner := p.ICMPv6.Body; len(inner) >= 4+48 {
			if ip := sc.innerDec.ParseIP(inner[4:]); ip.UDP != nil {
				sc.icmpUn[ip.UDP.DstPort] = true
			}
		}
	case p.ICMPv4 != nil && p.ICMPv4.Type == 3:
		if inner := p.ICMPv4.Body; len(inner) >= 4+28 {
			if ip := sc.innerDec.ParseIP(inner[4:]); ip.UDP != nil {
				sc.icmpUn[ip.UDP.DstPort] = true
			}
		}
	}
}

// DiscoverV6 pings the all-nodes group and returns every (address, MAC)
// pair that answered — the paper's technique for harvesting the
// potentially temporary IPv6 addresses before scanning.
func (sc *Scanner) DiscoverV6(n *netsim.Network) (map[netip.Addr]packet.MAC, error) {
	sc.found = map[netip.Addr]packet.MAC{}
	dst := addr.AllNodesMulticast
	err := sc.port.Transmit(
		&packet.Ethernet{Dst: addr.MulticastMAC(dst), Src: sc.MAC, Type: packet.EtherTypeIPv6},
		&packet.IPv6{NextHeader: packet.IPProtocolICMPv6, HopLimit: 64, Src: sc.LLA, Dst: dst},
		&packet.ICMPv6{Type: packet.ICMPv6TypeEchoRequest, Body: []byte{0, 7, 0, 1}, Src: sc.LLA, Dst: dst},
	)
	if err != nil {
		return nil, err
	}
	if _, err := n.Run(1 << 20); err != nil {
		return nil, err
	}
	out := map[netip.Addr]packet.MAC{}
	for a, m := range sc.found {
		out[a] = m
	}
	return out, nil
}

// TCPScan SYN-probes the given ports on target and returns the open set.
func (sc *Scanner) TCPScan(n *netsim.Network, target netip.Addr, mac packet.MAC, ports []uint16) ([]uint16, error) {
	sc.synAck = map[uint16]bool{}
	sc.rst = map[uint16]bool{}
	var src netip.Addr
	typ := packet.EtherTypeIPv6
	if target.Is4() {
		src, typ = sc.V4, packet.EtherTypeIPv4
	} else {
		src = sc.LLA
	}
	for i, dport := range ports {
		var ipLayer packet.SerializableLayer
		if target.Is4() {
			ipLayer = &packet.IPv4{Protocol: packet.IPProtocolTCP, Src: src, Dst: target}
		} else {
			ipLayer = &packet.IPv6{NextHeader: packet.IPProtocolTCP, Src: src, Dst: target}
		}
		err := sc.port.Transmit(
			&packet.Ethernet{Dst: mac, Src: sc.MAC, Type: typ},
			ipLayer,
			&packet.TCP{SrcPort: uint16(50000 + i), DstPort: dport, Seq: 7, Flags: packet.TCPFlagSYN, Src: src, Dst: target},
		)
		if err != nil {
			return nil, err
		}
	}
	if _, err := n.Run(1 << 20); err != nil {
		return nil, err
	}
	var open []uint16
	for p := range sc.synAck {
		open = append(open, p)
	}
	sort.Slice(open, func(i, j int) bool { return open[i] < open[j] })
	return open, nil
}

// UDPScan probes UDP ports; ports that do NOT elicit an ICMP
// port-unreachable are open|filtered (nmap semantics).
func (sc *Scanner) UDPScan(n *netsim.Network, target netip.Addr, mac packet.MAC, ports []uint16) ([]uint16, error) {
	sc.icmpUn = map[uint16]bool{}
	var src netip.Addr
	typ := packet.EtherTypeIPv6
	if target.Is4() {
		src, typ = sc.V4, packet.EtherTypeIPv4
	} else {
		src = sc.LLA
	}
	for i, dport := range ports {
		var ipLayer packet.SerializableLayer
		if target.Is4() {
			ipLayer = &packet.IPv4{Protocol: packet.IPProtocolUDP, Src: src, Dst: target}
		} else {
			ipLayer = &packet.IPv6{NextHeader: packet.IPProtocolUDP, Src: src, Dst: target}
		}
		err := sc.port.Transmit(
			&packet.Ethernet{Dst: mac, Src: sc.MAC, Type: typ},
			ipLayer,
			&packet.UDP{SrcPort: uint16(51000 + i), DstPort: dport, Src: src, Dst: target},
			packet.Raw([]byte("probe")),
		)
		if err != nil {
			return nil, err
		}
	}
	if _, err := n.Run(1 << 20); err != nil {
		return nil, err
	}
	var openOrFiltered []uint16
	for _, p := range ports {
		if !sc.icmpUn[p] {
			openOrFiltered = append(openOrFiltered, p)
		}
	}
	return openOrFiltered, nil
}
