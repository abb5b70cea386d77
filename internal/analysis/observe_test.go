package analysis

import (
	"net/netip"
	"testing"
	"time"

	"v6lab/internal/addr"
	"v6lab/internal/device"
	"v6lab/internal/dnsmsg"
	"v6lab/internal/ndp"
	"v6lab/internal/packet"
	"v6lab/internal/pcapio"
	"v6lab/internal/router"
	"v6lab/internal/tlssim"
)

var (
	obsMAC  = packet.MAC{0x02, 0x42, 0x42, 0x10, 0x20, 0x01}
	obsProf = &device.Profile{Name: "testdev", Category: device.Camera}
	obsMap  = map[packet.MAC]*device.Profile{obsMAC: obsProf}
	gua     = addr.EUI64Addr(router.GUAPrefix, obsMAC)
	privGUA = netip.MustParseAddr("2001:470:8:100::abcd")
	remote  = netip.MustParseAddr("2606:4700:10::77")
)

func mkCap(t *testing.T, frames ...[]byte) *pcapio.Capture {
	t.Helper()
	c := &pcapio.Capture{}
	base := time.Unix(1712300000, 0)
	for i, f := range frames {
		c.Add(base.Add(time.Duration(i)*time.Millisecond), f)
	}
	return c
}

func frame(t *testing.T, layers ...packet.SerializableLayer) []byte {
	t.Helper()
	f, err := packet.Serialize(layers...)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func obs1(t *testing.T, c *pcapio.Capture) *DeviceObs {
	t.Helper()
	e := Observe("test", device.ModeV6Only, c, obsMap, nil)
	d := e.Devices["testdev"]
	if d == nil {
		t.Fatal("device not observed")
	}
	return d
}

func TestObserveDADAttribution(t *testing.T) {
	ns := &ndp.NeighborSolicit{Target: gua}
	dst := addr.SolicitedNodeMulticast(gua)
	unspec := netip.IPv6Unspecified()
	c := mkCap(t, frame(t,
		&packet.Ethernet{Dst: addr.MulticastMAC(dst), Src: obsMAC, Type: packet.EtherTypeIPv6},
		&packet.IPv6{NextHeader: packet.IPProtocolICMPv6, HopLimit: 255, Src: unspec, Dst: dst},
		&packet.ICMPv6{Type: packet.ICMPv6TypeNeighborSolicit, Body: ns.MarshalBody(), Src: unspec, Dst: dst}))
	d := obs1(t, c)
	if !d.NDP {
		t.Error("NDP not flagged")
	}
	if !d.DADProbed[gua] {
		t.Error("DAD probe not attributed")
	}
	if d.Assigned[gua] != addr.KindGUA {
		t.Error("probed address not assigned")
	}
	if d.Used[gua] {
		t.Error("DAD probe should not mark use")
	}
}

func TestObserveResolutionNSNotAttributedToSender(t *testing.T) {
	// Address-resolution NS (non-:: source) targets SOMEONE ELSE's
	// address; it must not be attributed to the sender.
	other := netip.MustParseAddr("2001:470:8:100::1")
	ns := &ndp.NeighborSolicit{Target: other, SourceLinkAddr: obsMAC}
	dst := addr.SolicitedNodeMulticast(other)
	c := mkCap(t, frame(t,
		&packet.Ethernet{Dst: addr.MulticastMAC(dst), Src: obsMAC, Type: packet.EtherTypeIPv6},
		&packet.IPv6{NextHeader: packet.IPProtocolICMPv6, HopLimit: 255, Src: gua, Dst: dst},
		&packet.ICMPv6{Type: packet.ICMPv6TypeNeighborSolicit, Body: ns.MarshalBody(), Src: gua, Dst: dst}))
	d := obs1(t, c)
	if _, ok := d.Assigned[other]; ok {
		t.Error("router's address attributed to the device")
	}
}

func TestObserveEUI64DNSExposure(t *testing.T) {
	q := &dnsmsg.Message{ID: 7, RecursionDesired: true, Questions: []dnsmsg.Question{{Name: "secret.vendor.example", Type: dnsmsg.TypeAAAA}}}
	wire, _ := q.Pack()
	dns6 := netip.MustParseAddr("2001:4860:4860::8888")
	c := mkCap(t, frame(t,
		&packet.Ethernet{Dst: router.RouterMAC, Src: obsMAC, Type: packet.EtherTypeIPv6},
		&packet.IPv6{NextHeader: packet.IPProtocolUDP, Src: gua, Dst: dns6},
		&packet.UDP{SrcPort: 9999, DstPort: 53, Src: gua, Dst: dns6},
		packet.Raw(wire)))
	d := obs1(t, c)
	if !d.EUI64DNS || !d.EUI64DNSNames["secret.vendor.example"] {
		t.Errorf("EUI-64 DNS exposure missed: %+v", d.EUI64DNSNames)
	}
	if !d.Queries[QueryKey{Name: "secret.vendor.example", Type: dnsmsg.TypeAAAA, OverV6: true}] {
		t.Error("query not recorded")
	}
}

func TestObserveSNIAttribution(t *testing.T) {
	hello := tlssim.ClientHello("hardcoded.vendor.example", nil)
	c := mkCap(t, frame(t,
		&packet.Ethernet{Dst: router.RouterMAC, Src: obsMAC, Type: packet.EtherTypeIPv6},
		&packet.IPv6{NextHeader: packet.IPProtocolTCP, Src: privGUA, Dst: remote},
		&packet.TCP{SrcPort: 5, DstPort: 443, Flags: packet.TCPFlagPSH | packet.TCPFlagACK, Src: privGUA, Dst: remote},
		packet.Raw(hello)))
	d := obs1(t, c)
	if !d.InternetV6 {
		t.Error("Internet v6 data missed")
	}
	if !d.InternetFlows[FlowKey{Domain: "hardcoded.vendor.example", V6: true}] {
		t.Errorf("SNI attribution failed: %+v", d.InternetFlows)
	}
	if d.BytesV6 != len(hello) {
		t.Errorf("bytes = %d, want %d", d.BytesV6, len(hello))
	}
}

func TestObserveLocalVsInternet(t *testing.T) {
	local := netip.MustParseAddr("ff02::fb")
	lla := addr.LinkLocalEUI64(obsMAC)
	c := mkCap(t, frame(t,
		&packet.Ethernet{Dst: addr.MulticastMAC(local), Src: obsMAC, Type: packet.EtherTypeIPv6},
		&packet.IPv6{NextHeader: packet.IPProtocolUDP, Src: lla, Dst: local},
		&packet.UDP{SrcPort: 5353, DstPort: 5353, Src: lla, Dst: local},
		packet.Raw([]byte("matter"))))
	d := obs1(t, c)
	if !d.LocalV6Data {
		t.Error("local data missed")
	}
	if d.InternetV6 {
		t.Error("multicast misclassified as Internet")
	}
	// On-link GUA destinations also stay local.
	peer := netip.MustParseAddr("2001:470:8:100::77")
	c2 := mkCap(t, frame(t,
		&packet.Ethernet{Dst: packet.MAC{2, 0, 0, 0, 0, 9}, Src: obsMAC, Type: packet.EtherTypeIPv6},
		&packet.IPv6{NextHeader: packet.IPProtocolUDP, Src: gua, Dst: peer},
		&packet.UDP{SrcPort: 1, DstPort: 5540, Src: gua, Dst: peer},
		packet.Raw([]byte("x"))))
	d2 := obs1(t, c2)
	if d2.InternetV6 || !d2.LocalV6Data {
		t.Error("on-link GUA misclassified")
	}
}

func TestObserveNodataResponseIsNegative(t *testing.T) {
	r := &dnsmsg.Message{ID: 3, Response: true, RecursionDesired: true, RecursionAvailable: true, // NOERROR, zero answers
		Questions: []dnsmsg.Question{{Name: "v4only.example", Type: dnsmsg.TypeAAAA}}}
	r.Authority = []dnsmsg.Record{{Name: "example", Type: dnsmsg.TypeSOA, Target: "ns.example", TTL: 60}}
	wire, _ := r.Pack()
	dns6 := netip.MustParseAddr("2001:4860:4860::8888")
	c := mkCap(t, frame(t,
		&packet.Ethernet{Dst: obsMAC, Src: router.RouterMAC, Type: packet.EtherTypeIPv6},
		&packet.IPv6{NextHeader: packet.IPProtocolUDP, Src: dns6, Dst: gua},
		&packet.UDP{SrcPort: 53, DstPort: 9999, Src: dns6, Dst: gua},
		packet.Raw(wire)))
	d := obs1(t, c)
	if d.GotAAAAResponse(nil) {
		t.Error("NODATA counted as positive response")
	}
}

func TestObservePositiveResponse(t *testing.T) {
	r := &dnsmsg.Message{ID: 4, Response: true, RecursionDesired: true, RecursionAvailable: true,
		Questions: []dnsmsg.Question{{Name: "ok.example", Type: dnsmsg.TypeAAAA}}}
	r.Answers = []dnsmsg.Record{{Name: "ok.example", Type: dnsmsg.TypeAAAA, TTL: 60, Addr: remote}}
	wire, _ := r.Pack()
	dns6 := netip.MustParseAddr("2001:4860:4860::8888")
	c := mkCap(t, frame(t,
		&packet.Ethernet{Dst: obsMAC, Src: router.RouterMAC, Type: packet.EtherTypeIPv6},
		&packet.IPv6{NextHeader: packet.IPProtocolUDP, Src: dns6, Dst: gua},
		&packet.UDP{SrcPort: 53, DstPort: 9999, Src: dns6, Dst: gua},
		packet.Raw(wire)))
	e := Observe("t", device.ModeV6Only, c, obsMap, nil)
	d := e.Devices["testdev"]
	if d == nil || !d.GotAAAAResponse(nil) {
		t.Fatal("positive AAAA response missed")
	}
	if e.IPToName[remote] != "ok.example" {
		t.Error("answer did not feed the IP->name map")
	}
}

func TestObserveIgnoresUnknownMACs(t *testing.T) {
	c := mkCap(t, frame(t,
		&packet.Ethernet{Dst: obsMAC, Src: packet.MAC{2, 9, 9, 9, 9, 9}, Type: packet.EtherTypeIPv6},
		&packet.IPv6{NextHeader: packet.IPProtocolUDP, Src: remote, Dst: gua},
		&packet.UDP{SrcPort: 1, DstPort: 2, Src: remote, Dst: gua},
		packet.Raw([]byte("x"))))
	e := Observe("t", device.ModeV6Only, c, obsMap, nil)
	if len(e.Devices) != 1 { // only the inbound side (testdev) materializes
		t.Errorf("devices = %d", len(e.Devices))
	}
}
