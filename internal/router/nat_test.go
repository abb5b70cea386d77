package router

// NAT44 edge cases: source-port collisions between devices and between
// protocols, lease stability across device re-attachment, and
// deterministic lease ordering; and the in-place header rewrite checked
// byte for byte against packets rebuilt from layers.

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"testing"
	"time"

	"v6lab/internal/cloud"
	"v6lab/internal/dhcp4"
	"v6lab/internal/netsim"
	"v6lab/internal/packet"
)

var devMAC2 = packet.MAC{0x02, 0xde, 0xad, 0x00, 0x00, 0x02}

func natSetup(t *testing.T) (*netsim.Network, *Router, *scriptHost, *scriptHost, *cloud.Cloud) {
	t.Helper()
	n, r, h1, cl := setup(t, Config{IPv4: true})
	h2 := &scriptHost{}
	h2.port = n.Attach(h2, devMAC2)
	return n, r, h1, h2, cl
}

func sendUDPv4(t *testing.T, h *scriptHost, mac packet.MAC, src netip.Addr, sport uint16, dst netip.Addr, dport uint16, payload []byte) {
	t.Helper()
	send(t, h,
		&packet.Ethernet{Dst: RouterMAC, Src: mac, Type: packet.EtherTypeIPv4},
		&packet.IPv4{Protocol: packet.IPProtocolUDP, Src: src, Dst: dst},
		&packet.UDP{SrcPort: sport, DstPort: dport, Src: src, Dst: dst},
		packet.Raw(payload))
}

// TestNATSourcePortCollisionAcrossDevices: two devices using the same
// local source port must get distinct translated ports and each reply
// must return to the right device.
func TestNATSourcePortCollisionAcrossDevices(t *testing.T) {
	n, r, h1, h2, _ := natSetup(t)
	ip1 := netip.MustParseAddr("192.168.1.50")
	ip2 := netip.MustParseAddr("192.168.1.51")
	ntpReq := make([]byte, 48)
	ntpReq[0] = 0x1b
	sendUDPv4(t, h1, devMAC, ip1, 5000, cloud.NTPv4, 123, ntpReq)
	sendUDPv4(t, h2, devMAC2, ip2, 5000, cloud.NTPv4, 123, ntpReq)
	run(t, n)
	if r.ForwardedV4 != 2 {
		t.Fatalf("ForwardedV4 = %d, want 2", r.ForwardedV4)
	}
	for i, h := range []*scriptHost{h1, h2} {
		p := h.last()
		if p == nil || p.UDP == nil || p.UDP.SrcPort != 123 {
			t.Fatalf("host %d: no NTP reply: %+v", i+1, p)
		}
		if p.UDP.DstPort != 5000 {
			t.Fatalf("host %d: reply port %d, want untranslated 5000", i+1, p.UDP.DstPort)
		}
		want := []netip.Addr{ip1, ip2}[i]
		if p.IPv4.Dst != want {
			t.Fatalf("host %d: reply delivered to %v, want %v", i+1, p.IPv4.Dst, want)
		}
	}
}

// TestNATSameTupleDifferentProtocols: a TCP flow and a UDP flow sharing a
// device source port are distinct natKey mappings; replies for both must
// translate back (regression: natBack used to ignore the protocol, so the
// second protocol's reverse mapping was never installed).
func TestNATSameTupleDifferentProtocols(t *testing.T) {
	n, _, h, _, cl := natSetup(t)
	d := cl.AddDomain("svc.example", cloud.PartyFirst, false, false)
	ip := netip.MustParseAddr("192.168.1.50")
	// TCP SYN from :7000 to the service's web port.
	send(t, h,
		&packet.Ethernet{Dst: RouterMAC, Src: devMAC, Type: packet.EtherTypeIPv4},
		&packet.IPv4{Protocol: packet.IPProtocolTCP, Src: ip, Dst: d.V4[0]},
		&packet.TCP{SrcPort: 7000, DstPort: 443, Seq: 1, Flags: packet.TCPFlagSYN, Src: ip, Dst: d.V4[0]})
	run(t, n)
	p := h.last()
	if p == nil || p.TCP == nil || !p.TCP.HasFlag(packet.TCPFlagSYN|packet.TCPFlagACK) {
		t.Fatalf("no SYN-ACK: %+v", p)
	}
	if p.TCP.DstPort != 7000 || p.IPv4.Dst != ip {
		t.Fatalf("SYN-ACK misdelivered: port %d to %v", p.TCP.DstPort, p.IPv4.Dst)
	}
	// UDP from the same :7000 to NTP must ALSO get its reply back.
	h.rx = nil
	ntpReq := make([]byte, 48)
	ntpReq[0] = 0x1b
	sendUDPv4(t, h, devMAC, ip, 7000, cloud.NTPv4, 123, ntpReq)
	run(t, n)
	p = h.last()
	if p == nil || p.UDP == nil || p.UDP.SrcPort != 123 || p.UDP.DstPort != 7000 {
		t.Fatalf("UDP reply lost on shared source port: %+v", p)
	}
}

func discover(t *testing.T, h *scriptHost, mac packet.MAC, xid uint32) {
	t.Helper()
	msg := &dhcp4.Message{Op: 1, XID: xid, ClientMAC: mac, Type: dhcp4.Discover}
	wire, err := msg.AppendMarshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	bc := netip.MustParseAddr("255.255.255.255")
	zero := netip.MustParseAddr("0.0.0.0")
	send(t, h,
		&packet.Ethernet{Dst: packet.BroadcastMAC, Src: mac, Type: packet.EtherTypeIPv4},
		&packet.IPv4{Protocol: packet.IPProtocolUDP, Src: zero, Dst: bc},
		&packet.UDP{SrcPort: dhcp4.ClientPort, DstPort: dhcp4.ServerPort, Src: zero, Dst: bc},
		packet.Raw(wire))
}

// TestLeaseReuseAfterReattach: a device that reboots (fresh DISCOVER,
// same MAC) gets its previous address back, dnsmasq-style.
func TestLeaseReuseAfterReattach(t *testing.T) {
	n, r, h, _, _ := natSetup(t)
	discover(t, h, devMAC, 1)
	run(t, n)
	first, ok := r.LeaseFor(devMAC)
	if !ok {
		t.Fatal("no lease after first DISCOVER")
	}
	// Re-attach: the device falls off the network and boots again.
	discover(t, h, devMAC, 2)
	run(t, n)
	second, ok := r.LeaseFor(devMAC)
	if !ok || second != first {
		t.Fatalf("lease changed across re-attach: %v -> %v", first, second)
	}
	// Another device must not steal it.
	h2 := &scriptHost{}
	h2.port = n.Attach(h2, devMAC2)
	discover(t, h2, devMAC2, 3)
	run(t, n)
	if other, _ := r.LeaseFor(devMAC2); other == first {
		t.Fatalf("second device assigned the same lease %v", other)
	}
}

// TestDeterministicLeaseOrdering: leases are handed out in DISCOVER
// order from a fixed base, so two identical boots produce identical
// address plans (the determinism the capture pipeline depends on).
func TestDeterministicLeaseOrdering(t *testing.T) {
	macs := []packet.MAC{
		{0x02, 0xaa, 0, 0, 0, 1},
		{0x02, 0xaa, 0, 0, 0, 2},
		{0x02, 0xaa, 0, 0, 0, 3},
	}
	boot := func() []netip.Addr {
		cl := cloud.New()
		n := netsim.NewNetwork(netsim.NewClock(time.Date(2024, 4, 5, 0, 0, 0, 0, time.UTC)))
		r := New(Config{IPv4: true}, cl)
		r.Attach(n)
		var out []netip.Addr
		for i, mac := range macs {
			h := &scriptHost{}
			h.port = n.Attach(h, mac)
			discover(t, h, mac, uint32(i+10))
			run(t, n)
			lease, ok := r.LeaseFor(mac)
			if !ok {
				t.Fatalf("no lease for %v", mac)
			}
			out = append(out, lease)
		}
		return out
	}
	first := boot()
	for i, want := range []string{"192.168.1.101", "192.168.1.102", "192.168.1.103"} {
		if first[i] != netip.MustParseAddr(want) {
			t.Fatalf("lease[%d] = %v, want %s", i, first[i], want)
		}
	}
	second := boot()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("lease ordering not reproducible: %v vs %v", first, second)
		}
	}
}

var natDevIP = netip.MustParseAddr("192.168.1.50")

// reserialized is the reference NAT44 translation: ip decoded and rebuilt
// from fresh IPv4 and transport layers with the source (natSrc) or
// destination (natDst) address and port replaced, every checksum summed
// from scratch.
func reserialized(t *testing.T, ip []byte, dir int, a netip.Addr, port uint16) []byte {
	t.Helper()
	p := packet.ParseIP(ip)
	if p.Err != nil || p.IPv4 == nil {
		t.Fatalf("reference: not an IPv4 packet: %v", p.Err)
	}
	src, dst := p.IPv4.Src, p.IPv4.Dst
	if dir == natSrc {
		src = a
	} else {
		dst = a
	}
	setPort := func(sport, dport *uint16) {
		if dir == natSrc {
			*sport = port
		} else {
			*dport = port
		}
	}
	var l4 packet.SerializableLayer = p.ICMPv4
	var payload packet.Raw
	switch {
	case p.UDP != nil:
		u := &packet.UDP{SrcPort: p.UDP.SrcPort, DstPort: p.UDP.DstPort, Src: src, Dst: dst}
		setPort(&u.SrcPort, &u.DstPort)
		l4, payload = u, p.UDP.PayloadData
	case p.TCP != nil:
		tc := *p.TCP
		tc.Src, tc.Dst = src, dst
		setPort(&tc.SrcPort, &tc.DstPort)
		l4, payload = &tc, p.TCP.PayloadData
	}
	out, err := packet.Serialize(&packet.IPv4{Protocol: p.IPv4.Protocol, Src: src, Dst: dst}, l4, payload)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// zeroFoldPayload returns an NTP-sized payload whose UDP checksum between
// src:sport and dst:dport sums to zero, so it must go out as 0xffff.
func zeroFoldPayload(t *testing.T, src, dst netip.Addr, sport, dport uint16) []byte {
	t.Helper()
	payload := make([]byte, 48)
	payload[0] = 0x1b
	seg, err := packet.Serialize(&packet.UDP{SrcPort: sport, DstPort: dport, Src: src, Dst: dst}, packet.Raw(payload))
	if err != nil {
		t.Fatal(err)
	}
	// The checksum with the last word zero is the word that completes the
	// one's-complement sum to 0xffff.
	copy(payload[46:], seg[6:8])
	return payload
}

// bulkSegment returns the LAN frame of a device's 32,000-byte TCP data
// segment, with options, to dst — the §5 workloads' bulk segment.
func bulkSegment(tb testing.TB, dst netip.Addr) []byte {
	tb.Helper()
	frame, err := packet.Serialize(
		&packet.Ethernet{Dst: RouterMAC, Src: devMAC, Type: packet.EtherTypeIPv4},
		&packet.IPv4{Protocol: packet.IPProtocolTCP, Src: natDevIP, Dst: dst},
		&packet.TCP{SrcPort: 40000, DstPort: 443, Seq: 1000, Ack: 77, Flags: packet.TCPFlagPSH | packet.TCPFlagACK,
			Options: []byte{2, 4, 0x05, 0xb4, 1, 3, 3, 7}, Src: natDevIP, Dst: dst},
		packet.Raw(bytes.Repeat([]byte{0x17}, 32000)))
	if err != nil {
		tb.Fatal(err)
	}
	return frame
}

// TestNAT44MatchesReserialized: the in-place rewrite with incremental
// checksums must produce exactly the bytes of a packet rebuilt from
// layers, for the translated WAN packet and for the reply frame delivered
// back to the device.
func TestNAT44MatchesReserialized(t *testing.T) {
	cases := []struct {
		name string
		// frame builds the device's LAN frame to the service address svc,
		// given the NAT port its flow will be mapped to.
		frame func(t *testing.T, svc netip.Addr, natPort uint16) []byte
		// wanCk, when nonzero, is the checksum the WAN packet must carry.
		wanCk uint16
	}{
		{name: "tcp-bulk-options", frame: func(t *testing.T, svc netip.Addr, _ uint16) []byte {
			return bulkSegment(t, svc)
		}},
		{name: "udp-ntp", frame: func(t *testing.T, _ netip.Addr, _ uint16) []byte {
			ntp := make([]byte, 48)
			ntp[0] = 0x1b
			return deviceFrame(t, &packet.IPv4{Protocol: packet.IPProtocolUDP, Src: natDevIP, Dst: cloud.NTPv4},
				&packet.UDP{SrcPort: 5000, DstPort: 123, Src: natDevIP, Dst: cloud.NTPv4}, packet.Raw(ntp))
		}},
		{name: "udp-zero-fold", wanCk: 0xffff, frame: func(t *testing.T, _ netip.Addr, natPort uint16) []byte {
			ntp := zeroFoldPayload(t, WANv4, cloud.NTPv4, natPort, 123)
			return deviceFrame(t, &packet.IPv4{Protocol: packet.IPProtocolUDP, Src: natDevIP, Dst: cloud.NTPv4},
				&packet.UDP{SrcPort: 5000, DstPort: 123, Src: natDevIP, Dst: cloud.NTPv4}, packet.Raw(ntp))
		}},
		{name: "icmpv4-echo", frame: func(t *testing.T, svc netip.Addr, _ uint16) []byte {
			return deviceFrame(t, &packet.IPv4{Protocol: packet.IPProtocolICMPv4, Src: natDevIP, Dst: svc},
				&packet.ICMPv4{Type: packet.ICMPv4TypeEchoRequest, Body: []byte{0, 1, 0, 7, 'p', 'i', 'n', 'g', '!'}})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n, r, h, _, cl := natSetup(t)
			svc := cl.AddDomain("svc.example", cloud.PartyFirst, false, false).V4[0]
			natPort := r.natNext + 1
			frame := c.frame(t, svc, natPort)
			h.port.Send(frame)
			run(t, n)

			lan := packet.Parse(frame)
			want := reserialized(t, lan.Ethernet.PayloadData, natSrc, WANv4, natPort)
			if !bytes.Equal(r.wanBuf, want) {
				t.Fatalf("WAN packet differs from the reserialized reference:\n got %x\nwant %x", head(r.wanBuf), head(want))
			}
			if c.wanCk != 0 && binary.BigEndian.Uint16(r.wanBuf[26:28]) != c.wanCk {
				t.Fatalf("WAN UDP checksum = %#04x, want %#04x", binary.BigEndian.Uint16(r.wanBuf[26:28]), c.wanCk)
			}

			replies := cl.HandleIP(want)
			if len(replies) != 1 {
				t.Fatalf("cloud sent %d replies, want 1", len(replies))
			}
			var devPort uint16
			if lan.UDP != nil {
				devPort = lan.UDP.SrcPort
			} else if lan.TCP != nil {
				devPort = lan.TCP.SrcPort
			}
			wantLAN := ethFrame(t, reserialized(t, replies[0], natDst, natDevIP, devPort))
			if !bytes.Equal(h.raw, wantLAN) {
				t.Fatalf("LAN reply differs from the reserialized reference:\n got %x\nwant %x", head(h.raw), head(wantLAN))
			}
			if p := h.last(); p == nil || p.IPv4 == nil || p.IPv4.Dst != natDevIP {
				t.Fatalf("reply not delivered to the device: %+v", p)
			}
		})
	}

	// A reply whose translated checksum folds to zero: the inbound
	// rewrite must also send it as 0xffff.
	t.Run("udp-zero-fold-reply", func(t *testing.T) {
		n, r, h, _, _ := natSetup(t)
		r.nat[natKey(packet.IPProtocolUDP, 20001)] = natEntry{devIP: natDevIP, devPort: 5000}
		reply, err := packet.Serialize(
			&packet.IPv4{Protocol: packet.IPProtocolUDP, Src: cloud.NTPv4, Dst: WANv4},
			&packet.UDP{SrcPort: 123, DstPort: 20001, Src: cloud.NTPv4, Dst: WANv4},
			packet.Raw(zeroFoldPayload(t, cloud.NTPv4, natDevIP, 123, 5000)))
		if err != nil {
			t.Fatal(err)
		}
		// The reference comes first: delivery rewrites the reply in place.
		wantLAN := ethFrame(t, reserialized(t, reply, natDst, natDevIP, 5000))
		r.deliverWANReplyV4(reply, devMAC, natDevIP)
		run(t, n)
		if !bytes.Equal(h.raw, wantLAN) {
			t.Fatalf("LAN reply differs from the reserialized reference:\n got %x\nwant %x", h.raw, wantLAN)
		}
		if ck := binary.BigEndian.Uint16(h.raw[14+26:]); ck != 0xffff {
			t.Fatalf("LAN UDP checksum = %#04x, want 0xffff", ck)
		}
	})
}

// deviceFrame serializes an IPv4 packet from the test device to the router.
func deviceFrame(t *testing.T, layers ...packet.SerializableLayer) []byte {
	t.Helper()
	frame, err := packet.Serialize(append([]packet.SerializableLayer{
		&packet.Ethernet{Dst: RouterMAC, Src: devMAC, Type: packet.EtherTypeIPv4}}, layers...)...)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// ethFrame frames an IPv4 packet from the router to the test device.
func ethFrame(t *testing.T, ip []byte) []byte {
	t.Helper()
	frame, err := packet.Serialize(&packet.Ethernet{Dst: devMAC, Src: RouterMAC, Type: packet.EtherTypeIPv4}, packet.Raw(ip))
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// head trims a packet for a failure message.
func head(b []byte) []byte { return b[:min(len(b), 80)] }

// lastFrame is a LAN host that keeps a copy of the last frame it
// received in a buffer it reuses.
type lastFrame struct{ frame []byte }

func (h *lastFrame) HandleFrame(frame []byte) { h.frame = append(h.frame[:0], frame...) }

// bulkNAT44 returns a router with a cloud service on its WAN, the device
// host the router's replies reach, and the LAN frame of a device's
// 32,000-byte TCP segment to that service.
func bulkNAT44(tb testing.TB) (*netsim.Network, *Router, *lastFrame, []byte) {
	cl := cloud.New()
	n := netsim.NewNetwork(netsim.NewClock(time.Date(2024, 4, 5, 0, 0, 0, 0, time.UTC)))
	r := New(Config{IPv4: true}, cl)
	r.Attach(n)
	dev := &lastFrame{}
	n.Attach(dev, devMAC)
	svc := cl.AddDomain("svc.example", cloud.PartyFirst, false, false).V4[0]
	return n, r, dev, bulkSegment(tb, svc)
}

// forwardBulk hands the router one bulk segment and delivers the reply
// the router translated back onto the LAN; the drain recycles the
// switch's frame arena.
func forwardBulk(tb testing.TB, n *netsim.Network, r *Router, frame []byte) {
	r.HandleFrame(frame)
	if _, err := n.Run(10); err != nil {
		tb.Fatal(err)
	}
}

// TestNAT44BulkForwardAllocs: once the flow is mapped and the buffers have
// grown, forwarding a 32,000-byte TCP segment and translating its reply
// onto the LAN allocates nothing, and the device receives the reply the
// reference translation builds.
func TestNAT44BulkForwardAllocs(t *testing.T) {
	n, r, dev, frame := bulkNAT44(t)
	forwardBulk(t, n, r, frame)
	if len(dev.frame) < 32000 {
		t.Fatalf("no bulk reply translated: %d-byte LAN frame", len(dev.frame))
	}
	lan := packet.Parse(frame)
	replies := r.Cloud.HandleIP(reserialized(t, lan.Ethernet.PayloadData, natSrc, WANv4, r.natNext))
	wantLAN := ethFrame(t, reserialized(t, replies[0], natDst, natDevIP, lan.TCP.SrcPort))
	if !bytes.Equal(dev.frame, wantLAN) {
		t.Fatalf("LAN reply differs from the reserialized reference:\n got %x\nwant %x", head(dev.frame), head(wantLAN))
	}
	if allocs := testing.AllocsPerRun(50, func() { forwardBulk(t, n, r, frame) }); allocs != 0 {
		t.Fatalf("NAT44 bulk round trip allocates %.0f times, want 0", allocs)
	}
}

// BenchmarkNAT44Forward measures one bulk TCP round trip through NAT44:
// the device's 32,000-byte segment out to the cloud and the equal-sized
// reply back toward the LAN.
func BenchmarkNAT44Forward(b *testing.B) {
	n, r, _, frame := bulkNAT44(b)
	forwardBulk(b, n, r, frame)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forwardBulk(b, n, r, frame)
	}
}
