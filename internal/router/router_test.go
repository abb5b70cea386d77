package router

import (
	"net/netip"
	"testing"
	"time"

	"v6lab/internal/addr"
	"v6lab/internal/cloud"
	"v6lab/internal/dhcp4"
	"v6lab/internal/dhcp6"
	"v6lab/internal/dnsmsg"
	"v6lab/internal/ndp"
	"v6lab/internal/netsim"
	"v6lab/internal/packet"
)

// scriptHost is a minimal LAN client that records everything it receives.
type scriptHost struct {
	port *netsim.Port
	rx   []*packet.Packet
}

func (h *scriptHost) HandleFrame(frame []byte) {
	h.rx = append(h.rx, packet.Parse(frame))
}

func (h *scriptHost) last() *packet.Packet {
	if len(h.rx) == 0 {
		return nil
	}
	return h.rx[len(h.rx)-1]
}

var devMAC = packet.MAC{0x02, 0xde, 0xad, 0x00, 0x00, 0x01}

func setup(t *testing.T, cfg Config) (*netsim.Network, *Router, *scriptHost, *cloud.Cloud) {
	t.Helper()
	cl := cloud.New()
	n := netsim.NewNetwork(netsim.NewClock(time.Date(2024, 4, 5, 0, 0, 0, 0, time.UTC)))
	r := New(cfg, cl)
	r.Attach(n)
	h := &scriptHost{}
	h.port = n.Attach(h, devMAC)
	return n, r, h, cl
}

func run(t *testing.T, n *netsim.Network) {
	t.Helper()
	if _, err := n.Run(10000); err != nil {
		t.Fatal(err)
	}
}

func send(t *testing.T, h *scriptHost, layers ...packet.SerializableLayer) {
	t.Helper()
	frame, err := packet.Serialize(layers...)
	if err != nil {
		t.Fatal(err)
	}
	h.port.Send(frame)
}

func TestARPReply(t *testing.T) {
	n, _, h, _ := setup(t, Config{IPv4: true})
	send(t, h,
		&packet.Ethernet{Dst: packet.BroadcastMAC, Src: devMAC, Type: packet.EtherTypeARP},
		&packet.ARP{Op: packet.ARPRequest, SenderMAC: devMAC, SenderIP: netip.MustParseAddr("192.168.1.50"), TargetIP: RouterV4})
	run(t, n)
	p := h.last()
	if p == nil || p.ARP == nil || p.ARP.Op != packet.ARPReply || p.ARP.SenderMAC != RouterMAC {
		t.Fatalf("no ARP reply: %+v", p)
	}
}

func TestDHCPv4Exchange(t *testing.T) {
	n, r, h, _ := setup(t, Config{IPv4: true})
	disc := &dhcp4.Message{Op: 1, XID: 42, ClientMAC: devMAC, Type: dhcp4.Discover}
	wire, _ := disc.Marshal()
	bc := netip.MustParseAddr("255.255.255.255")
	zero := netip.MustParseAddr("0.0.0.0")
	send(t, h,
		&packet.Ethernet{Dst: packet.BroadcastMAC, Src: devMAC, Type: packet.EtherTypeIPv4},
		&packet.IPv4{Protocol: packet.IPProtocolUDP, Src: zero, Dst: bc},
		&packet.UDP{SrcPort: dhcp4.ClientPort, DstPort: dhcp4.ServerPort, Src: zero, Dst: bc},
		packet.Raw(wire))
	run(t, n)
	p := h.last()
	if p == nil || p.UDP == nil {
		t.Fatal("no offer")
	}
	offer, err := dhcp4.Unmarshal(p.UDP.PayloadData)
	if err != nil || offer.Type != dhcp4.Offer {
		t.Fatalf("offer: %+v err=%v", offer, err)
	}
	if !LANv4Prefix.Contains(offer.YourIP) || offer.DNS[0] != cloud.DNSv4 {
		t.Errorf("offer contents: %+v", offer)
	}
	// REQUEST -> ACK with the same lease.
	req := &dhcp4.Message{Op: 1, XID: 43, ClientMAC: devMAC, Type: dhcp4.Request, Requested: offer.YourIP, ServerID: RouterV4}
	wire, _ = req.Marshal()
	send(t, h,
		&packet.Ethernet{Dst: packet.BroadcastMAC, Src: devMAC, Type: packet.EtherTypeIPv4},
		&packet.IPv4{Protocol: packet.IPProtocolUDP, Src: zero, Dst: bc},
		&packet.UDP{SrcPort: dhcp4.ClientPort, DstPort: dhcp4.ServerPort, Src: zero, Dst: bc},
		packet.Raw(wire))
	run(t, n)
	ack, err := dhcp4.Unmarshal(h.last().UDP.PayloadData)
	if err != nil || ack.Type != dhcp4.ACK || ack.YourIP != offer.YourIP {
		t.Fatalf("ack: %+v err=%v", ack, err)
	}
	if lease, ok := r.LeaseFor(devMAC); !ok || lease != offer.YourIP {
		t.Error("lease not recorded")
	}
}

func TestDHCPv4DisabledWithoutIPv4(t *testing.T) {
	n, _, h, _ := setup(t, Config{IPv6: true})
	disc := &dhcp4.Message{Op: 1, XID: 1, ClientMAC: devMAC, Type: dhcp4.Discover}
	wire, _ := disc.Marshal()
	bc := netip.MustParseAddr("255.255.255.255")
	zero := netip.MustParseAddr("0.0.0.0")
	send(t, h,
		&packet.Ethernet{Dst: packet.BroadcastMAC, Src: devMAC, Type: packet.EtherTypeIPv4},
		&packet.IPv4{Protocol: packet.IPProtocolUDP, Src: zero, Dst: bc},
		&packet.UDP{SrcPort: dhcp4.ClientPort, DstPort: dhcp4.ServerPort, Src: zero, Dst: bc},
		packet.Raw(wire))
	run(t, n)
	if len(h.rx) != 0 {
		t.Fatal("IPv6-only router answered DHCPv4")
	}
}

func sendRS(t *testing.T, h *scriptHost) {
	lla := addr.LinkLocalEUI64(devMAC)
	rs := &ndp.RouterSolicit{SourceLinkAddr: devMAC}
	dst := addr.AllRoutersMulticast
	send(t, h,
		&packet.Ethernet{Dst: addr.MulticastMAC(dst), Src: devMAC, Type: packet.EtherTypeIPv6},
		&packet.IPv6{NextHeader: packet.IPProtocolICMPv6, HopLimit: 255, Src: lla, Dst: dst},
		&packet.ICMPv6{Type: packet.ICMPv6TypeRouterSolicit, Body: rs.MarshalBody(), Src: lla, Dst: dst})
}

func findRA(t *testing.T, h *scriptHost) *ndp.RouterAdvert {
	t.Helper()
	for _, p := range h.rx {
		if p.ICMPv6 != nil && p.ICMPv6.Type == packet.ICMPv6TypeRouterAdvert {
			ra, err := ndp.ParseRouterAdvert(p.ICMPv6.Body)
			if err != nil {
				t.Fatal(err)
			}
			return ra
		}
	}
	return nil
}

func TestRouterAdvertisementModes(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantM   bool
		wantO   bool
		wantDNS bool
		wantRA  bool
	}{
		{"baseline", Config{IPv6: true, StatelessDHCPv6: true}, false, true, true, true},
		{"rdnss-only", Config{IPv6: true}, false, false, true, true},
		{"stateful", Config{IPv6: true, StatelessDHCPv6: true, StatefulDHCPv6: true}, true, true, true, true},
		{"v4only", Config{IPv4: true}, false, false, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, _, h, _ := setup(t, tc.cfg)
			sendRS(t, h)
			run(t, n)
			ra := findRA(t, h)
			if !tc.wantRA {
				if ra != nil {
					t.Fatal("unexpected RA")
				}
				return
			}
			if ra == nil {
				t.Fatal("no RA")
			}
			if ra.Managed != tc.wantM || ra.OtherConfig != tc.wantO {
				t.Errorf("M=%v O=%v", ra.Managed, ra.OtherConfig)
			}
			if (len(ra.RDNSS) > 0) != tc.wantDNS {
				t.Errorf("RDNSS present=%v", len(ra.RDNSS) > 0)
			}
			if len(ra.Prefixes) != 2 || ra.Prefixes[0].Prefix != GUAPrefix || ra.Prefixes[1].Prefix != ULAPrefix {
				t.Errorf("prefixes: %+v", ra.Prefixes)
			}
			for _, p := range ra.Prefixes {
				if !p.AutonomousFlag {
					t.Error("PIO without A flag")
				}
			}
		})
	}
}

func TestNeighborSolicitForRouter(t *testing.T) {
	n, r, h, _ := setup(t, Config{IPv6: true})
	lla := addr.LinkLocalEUI64(devMAC)
	ns := &ndp.NeighborSolicit{Target: RouterLLA, SourceLinkAddr: devMAC}
	dst := addr.SolicitedNodeMulticast(RouterLLA)
	send(t, h,
		&packet.Ethernet{Dst: addr.MulticastMAC(dst), Src: devMAC, Type: packet.EtherTypeIPv6},
		&packet.IPv6{NextHeader: packet.IPProtocolICMPv6, HopLimit: 255, Src: lla, Dst: dst},
		&packet.ICMPv6{Type: packet.ICMPv6TypeNeighborSolicit, Body: ns.MarshalBody(), Src: lla, Dst: dst})
	run(t, n)
	var na *ndp.NeighborAdvert
	for _, p := range h.rx {
		if p.ICMPv6 != nil && p.ICMPv6.Type == packet.ICMPv6TypeNeighborAdvert {
			na, _ = ndp.ParseNeighborAdvert(p.ICMPv6.Body)
		}
	}
	if na == nil || na.Target != RouterLLA || na.TargetLinkAddr != RouterMAC || !na.Router {
		t.Fatalf("NA: %+v", na)
	}
	if r.Neighbors[lla] != devMAC {
		t.Error("router did not learn neighbor from NS")
	}
}

func TestDHCPv6StatelessAndStateful(t *testing.T) {
	n, r, h, _ := setup(t, Config{IPv6: true, StatelessDHCPv6: true, StatefulDHCPv6: true})
	lla := addr.LinkLocalEUI64(devMAC)
	duid := dhcp6.DUIDFromMAC(devMAC)
	sendDHCP6 := func(m *dhcp6.Message) {
		wire, err := m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		dst := netip.MustParseAddr(dhcp6.AllRelayAgentsAndServers)
		send(t, h,
			&packet.Ethernet{Dst: addr.MulticastMAC(dst), Src: devMAC, Type: packet.EtherTypeIPv6},
			&packet.IPv6{NextHeader: packet.IPProtocolUDP, Src: lla, Dst: dst},
			&packet.UDP{SrcPort: dhcp6.ClientPort, DstPort: dhcp6.ServerPort, Src: lla, Dst: dst},
			packet.Raw(wire))
	}
	// Stateless: INFORMATION-REQUEST -> REPLY with DNS.
	sendDHCP6(&dhcp6.Message{Type: dhcp6.InfoRequest, TxID: 1, ClientID: duid, RequestedOptions: []uint16{dhcp6.OptDNSServers}})
	run(t, n)
	reply, err := dhcp6.Unmarshal(h.last().UDP.PayloadData)
	if err != nil || reply.Type != dhcp6.Reply || len(reply.DNS) != 1 || reply.DNS[0] != cloud.DNSv6 {
		t.Fatalf("stateless reply: %+v err=%v", reply, err)
	}
	// Stateful: SOLICIT -> ADVERTISE with IA_NA.
	sendDHCP6(&dhcp6.Message{Type: dhcp6.Solicit, TxID: 2, ClientID: duid, IANA: &dhcp6.IANA{IAID: 9}, RequestedOptions: []uint16{dhcp6.OptDNSServers}})
	run(t, n)
	adv, err := dhcp6.Unmarshal(h.last().UDP.PayloadData)
	if err != nil || adv.Type != dhcp6.Advertise || adv.IANA == nil || len(adv.IANA.Addrs) != 1 {
		t.Fatalf("advertise: %+v err=%v", adv, err)
	}
	lease := adv.IANA.Addrs[0].Addr
	if !GUAPrefix.Contains(lease) {
		t.Errorf("lease %v outside GUA prefix", lease)
	}
	// REQUEST -> REPLY with the same address.
	sendDHCP6(&dhcp6.Message{Type: dhcp6.Request, TxID: 3, ClientID: duid, ServerID: adv.ServerID, IANA: &dhcp6.IANA{IAID: 9}})
	run(t, n)
	rep, err := dhcp6.Unmarshal(h.last().UDP.PayloadData)
	if err != nil || rep.Type != dhcp6.Reply || rep.IANA.Addrs[0].Addr != lease {
		t.Fatalf("reply: %+v err=%v", rep, err)
	}
	if got, ok := r.DHCPv6LeaseFor(duid); !ok || got != lease {
		t.Error("lease not recorded")
	}
}

func TestStatefulDisabledIgnoresSolicit(t *testing.T) {
	n, _, h, _ := setup(t, Config{IPv6: true, StatelessDHCPv6: true})
	lla := addr.LinkLocalEUI64(devMAC)
	m := &dhcp6.Message{Type: dhcp6.Solicit, TxID: 5, ClientID: dhcp6.DUIDFromMAC(devMAC), IANA: &dhcp6.IANA{IAID: 1}}
	wire, _ := m.Marshal()
	dst := netip.MustParseAddr(dhcp6.AllRelayAgentsAndServers)
	send(t, h,
		&packet.Ethernet{Dst: addr.MulticastMAC(dst), Src: devMAC, Type: packet.EtherTypeIPv6},
		&packet.IPv6{NextHeader: packet.IPProtocolUDP, Src: lla, Dst: dst},
		&packet.UDP{SrcPort: dhcp6.ClientPort, DstPort: dhcp6.ServerPort, Src: lla, Dst: dst},
		packet.Raw(wire))
	run(t, n)
	if len(h.rx) != 0 {
		t.Fatal("baseline router advertised a stateful lease")
	}
}

func TestNAT44DNSRoundTrip(t *testing.T) {
	n, r, h, cl := setup(t, Config{IPv4: true})
	cl.AddDomain("api.vendor.example", cloud.PartyFirst, true, false)
	devIP := netip.MustParseAddr("192.168.1.101")
	q := &dnsmsg.Message{ID: 77, RecursionDesired: true, Questions: []dnsmsg.Question{{Name: "api.vendor.example", Type: dnsmsg.TypeA}}}
	wire, _ := q.Pack()
	send(t, h,
		&packet.Ethernet{Dst: RouterMAC, Src: devMAC, Type: packet.EtherTypeIPv4},
		&packet.IPv4{Protocol: packet.IPProtocolUDP, Src: devIP, Dst: cloud.DNSv4},
		&packet.UDP{SrcPort: 33333, DstPort: 53, Src: devIP, Dst: cloud.DNSv4},
		packet.Raw(wire))
	run(t, n)
	p := h.last()
	if p == nil || p.UDP == nil || p.UDP.DstPort != 33333 || p.IPv4.Dst != devIP || p.IPv4.Src != cloud.DNSv4 {
		t.Fatalf("no translated reply: %+v", p)
	}
	m, err := dnsmsg.Unpack(p.UDP.PayloadData)
	if err != nil || len(m.Answers) != 1 {
		t.Fatalf("dns answer: %+v err=%v", m, err)
	}
	if r.ForwardedV4 != 1 {
		t.Errorf("ForwardedV4 = %d", r.ForwardedV4)
	}
}

func TestIPv6ForwardingRoundTrip(t *testing.T) {
	n, r, h, cl := setup(t, Config{IPv6: true, StatelessDHCPv6: true})
	d := cl.AddDomain("svc.vendor.example", cloud.PartyFirst, true, false)
	gua := addr.EUI64Addr(GUAPrefix, devMAC)
	// The router must know the device's neighbor entry to deliver replies.
	lla := addr.LinkLocalEUI64(devMAC)
	na := &ndp.NeighborAdvert{Target: gua, TargetLinkAddr: devMAC, Override: true}
	dst := addr.AllNodesMulticast
	send(t, h,
		&packet.Ethernet{Dst: addr.MulticastMAC(dst), Src: devMAC, Type: packet.EtherTypeIPv6},
		&packet.IPv6{NextHeader: packet.IPProtocolICMPv6, HopLimit: 255, Src: lla, Dst: dst},
		&packet.ICMPv6{Type: packet.ICMPv6TypeNeighborAdvert, Body: na.MarshalBody(), Src: lla, Dst: dst})
	send(t, h,
		&packet.Ethernet{Dst: RouterMAC, Src: devMAC, Type: packet.EtherTypeIPv6},
		&packet.IPv6{NextHeader: packet.IPProtocolTCP, Src: gua, Dst: d.V6[0]},
		&packet.TCP{SrcPort: 44444, DstPort: 443, Seq: 1, Flags: packet.TCPFlagSYN, Src: gua, Dst: d.V6[0]})
	run(t, n)
	var synack *packet.Packet
	for _, p := range h.rx {
		if p.TCP != nil && p.TCP.HasFlag(packet.TCPFlagSYN|packet.TCPFlagACK) {
			synack = p
		}
	}
	if synack == nil {
		t.Fatal("no SYN-ACK via v6 forwarding")
	}
	if synack.IPv6.Dst != gua || synack.IPv6.Src != d.V6[0] {
		t.Errorf("addressing: %v -> %v", synack.IPv6.Src, synack.IPv6.Dst)
	}
	if r.ForwardedV6 != 1 {
		t.Errorf("ForwardedV6 = %d", r.ForwardedV6)
	}
}

func TestULASourceNotForwarded(t *testing.T) {
	n, r, h, cl := setup(t, Config{IPv6: true})
	d := cl.AddDomain("x.example", cloud.PartyFirst, true, false)
	ula := addr.EUI64Addr(ULAPrefix, devMAC)
	send(t, h,
		&packet.Ethernet{Dst: RouterMAC, Src: devMAC, Type: packet.EtherTypeIPv6},
		&packet.IPv6{NextHeader: packet.IPProtocolTCP, Src: ula, Dst: d.V6[0]},
		&packet.TCP{SrcPort: 1, DstPort: 443, Flags: packet.TCPFlagSYN, Src: ula, Dst: d.V6[0]})
	run(t, n)
	if r.ForwardedV6 != 0 {
		t.Error("ULA-sourced packet was forwarded")
	}
}

func TestV6ForwardingDisabledInV4Only(t *testing.T) {
	n, r, h, cl := setup(t, Config{IPv4: true})
	d := cl.AddDomain("y.example", cloud.PartyFirst, true, false)
	gua := addr.EUI64Addr(GUAPrefix, devMAC)
	send(t, h,
		&packet.Ethernet{Dst: RouterMAC, Src: devMAC, Type: packet.EtherTypeIPv6},
		&packet.IPv6{NextHeader: packet.IPProtocolTCP, Src: gua, Dst: d.V6[0]},
		&packet.TCP{SrcPort: 1, DstPort: 443, Flags: packet.TCPFlagSYN, Src: gua, Dst: d.V6[0]})
	run(t, n)
	if r.ForwardedV6 != 0 {
		t.Error("v4-only router forwarded IPv6")
	}
}
