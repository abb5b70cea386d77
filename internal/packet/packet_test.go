package packet

import (
	"bytes"
	"net/netip"
	"testing"
	"testing/quick"
)

var (
	mac1 = MAC{0x02, 0x11, 0x22, 0x33, 0x44, 0x55}
	mac2 = MAC{0x02, 0xaa, 0xbb, 0xcc, 0xdd, 0xee}
	ip41 = netip.MustParseAddr("192.168.1.10")
	ip42 = netip.MustParseAddr("8.8.8.8")
	ip61 = netip.MustParseAddr("2001:470:8:100::10")
	ip62 = netip.MustParseAddr("2001:4860:4860::8888")
)

func TestEthernetRoundTrip(t *testing.T) {
	eth := &Ethernet{Dst: mac2, Src: mac1, Type: EtherTypeIPv6}
	frame, err := Serialize(eth, Raw("hello"))
	if err != nil {
		t.Fatal(err)
	}
	var got Ethernet
	if err := got.DecodeFromBytes(frame); err != nil {
		t.Fatal(err)
	}
	if got.Src != mac1 || got.Dst != mac2 || got.Type != EtherTypeIPv6 {
		t.Errorf("header mismatch: %+v", got)
	}
	if string(got.Payload()) != "hello" {
		t.Errorf("payload = %q", got.Payload())
	}
}

func TestEthernetTruncated(t *testing.T) {
	var e Ethernet
	if err := e.DecodeFromBytes(make([]byte, 13)); err == nil {
		t.Fatal("want error for 13-byte frame")
	}
}

func TestMACHelpers(t *testing.T) {
	if got := mac1.String(); got != "02:11:22:33:44:55" {
		t.Errorf("String = %q", got)
	}
	if !BroadcastMAC.IsMulticast() {
		t.Error("broadcast should be multicast")
	}
	if mac1.IsMulticast() {
		t.Error("unicast flagged multicast")
	}
	if (MAC{}).IsZero() != true || mac1.IsZero() {
		t.Error("IsZero wrong")
	}
	if mac1.OUI() != [3]byte{0x02, 0x11, 0x22} {
		t.Error("OUI wrong")
	}
}

func TestARPRoundTrip(t *testing.T) {
	a := &ARP{Op: ARPRequest, SenderMAC: mac1, SenderIP: ip41, TargetMAC: MAC{}, TargetIP: ip42}
	frame, err := Serialize(&Ethernet{Dst: BroadcastMAC, Src: mac1, Type: EtherTypeARP}, a)
	if err != nil {
		t.Fatal(err)
	}
	p := Parse(frame)
	if p.Err != nil {
		t.Fatal(p.Err)
	}
	if p.ARP == nil {
		t.Fatal("no ARP layer")
	}
	if p.ARP.Op != ARPRequest || p.ARP.SenderIP != ip41 || p.ARP.TargetIP != ip42 {
		t.Errorf("ARP mismatch: %+v", p.ARP)
	}
}

func TestIPv4UDPRoundTrip(t *testing.T) {
	payload := []byte("dns query bytes")
	frame, err := Serialize(
		&Ethernet{Dst: mac2, Src: mac1, Type: EtherTypeIPv4},
		&IPv4{Protocol: IPProtocolUDP, Src: ip41, Dst: ip42, TTL: 64},
		&UDP{SrcPort: 5353, DstPort: 53, Src: ip41, Dst: ip42},
		Raw(payload),
	)
	if err != nil {
		t.Fatal(err)
	}
	p := Parse(frame)
	if p.Err != nil {
		t.Fatal(p.Err)
	}
	if p.IPv4 == nil || p.UDP == nil {
		t.Fatal("missing layers")
	}
	if p.IPv4.Src != ip41 || p.IPv4.Dst != ip42 {
		t.Errorf("ip mismatch %v -> %v", p.IPv4.Src, p.IPv4.Dst)
	}
	if p.SrcPort() != 5353 || p.DstPort() != 53 {
		t.Errorf("ports %d -> %d", p.SrcPort(), p.DstPort())
	}
	if !bytes.Equal(p.TransportPayload(), payload) {
		t.Errorf("payload %q", p.TransportPayload())
	}
	// Verify the UDP checksum survives pseudo-header recomputation.
	raw := p.Ethernet.Payload()[20:]
	if got := TransportChecksum(ip41, ip42, uint8(IPProtocolUDP), zeroCk(raw, 6)); got != p.UDP.Checksum {
		t.Errorf("udp checksum: computed %04x, wire %04x", got, p.UDP.Checksum)
	}
}

// zeroCk returns a copy of seg with the 2-byte checksum at off zeroed.
func zeroCk(seg []byte, off int) []byte {
	c := append([]byte(nil), seg...)
	c[off], c[off+1] = 0, 0
	return c
}

func TestIPv6TCPRoundTrip(t *testing.T) {
	payload := []byte("tls client hello-ish")
	frame, err := Serialize(
		&Ethernet{Dst: mac2, Src: mac1, Type: EtherTypeIPv6},
		&IPv6{NextHeader: IPProtocolTCP, Src: ip61, Dst: ip62, HopLimit: 64},
		&TCP{SrcPort: 40000, DstPort: 443, Seq: 1000, Ack: 2000, Flags: TCPFlagPSH | TCPFlagACK, Src: ip61, Dst: ip62},
		Raw(payload),
	)
	if err != nil {
		t.Fatal(err)
	}
	p := Parse(frame)
	if p.Err != nil {
		t.Fatal(p.Err)
	}
	if !p.IsIPv6() || p.TCP == nil {
		t.Fatal("missing layers")
	}
	if p.SrcIP() != ip61 || p.DstIP() != ip62 {
		t.Errorf("addrs %v -> %v", p.SrcIP(), p.DstIP())
	}
	if !p.TCP.HasFlag(TCPFlagACK) || p.TCP.HasFlag(TCPFlagSYN) {
		t.Errorf("flags %02x", p.TCP.Flags)
	}
	if !bytes.Equal(p.TransportPayload(), payload) {
		t.Errorf("payload %q", p.TransportPayload())
	}
	raw := p.Ethernet.Payload()[40:]
	if got := TransportChecksum(ip61, ip62, uint8(IPProtocolTCP), zeroCk(raw, 16)); got != p.TCP.Checksum {
		t.Errorf("tcp checksum: computed %04x, wire %04x", got, p.TCP.Checksum)
	}
}

func TestICMPv6RoundTrip(t *testing.T) {
	body := []byte{0, 0, 0, 0, 1, 2, 3, 4}
	frame, err := Serialize(
		&Ethernet{Dst: mac2, Src: mac1, Type: EtherTypeIPv6},
		&IPv6{NextHeader: IPProtocolICMPv6, Src: ip61, Dst: ip62, HopLimit: 255},
		&ICMPv6{Type: ICMPv6TypeNeighborSolicit, Body: body, Src: ip61, Dst: ip62},
	)
	if err != nil {
		t.Fatal(err)
	}
	p := Parse(frame)
	if p.Err != nil {
		t.Fatal(p.Err)
	}
	if p.ICMPv6 == nil || p.ICMPv6.Type != ICMPv6TypeNeighborSolicit {
		t.Fatalf("icmpv6 layer: %+v", p.ICMPv6)
	}
	if !bytes.Equal(p.ICMPv6.Body, body) {
		t.Errorf("body %x", p.ICMPv6.Body)
	}
	if !p.ICMPv6.VerifyChecksum(ip61, ip62) {
		t.Error("checksum did not verify")
	}
	if p.ICMPv6.VerifyChecksum(ip61, netip.MustParseAddr("2001:db8::1")) {
		t.Error("checksum verified with wrong address")
	}
}

func TestICMPv4RoundTrip(t *testing.T) {
	frame, err := Serialize(
		&Ethernet{Dst: mac2, Src: mac1, Type: EtherTypeIPv4},
		&IPv4{Protocol: IPProtocolICMPv4, Src: ip41, Dst: ip42},
		&ICMPv4{Type: ICMPv4TypeEchoRequest, Body: []byte{0, 1, 0, 1}},
	)
	if err != nil {
		t.Fatal(err)
	}
	p := Parse(frame)
	if p.Err != nil {
		t.Fatal(p.Err)
	}
	if p.ICMPv4 == nil || p.ICMPv4.Type != ICMPv4TypeEchoRequest {
		t.Fatalf("icmpv4: %+v", p.ICMPv4)
	}
	// Full-message checksum must fold to zero when summed with itself.
	seg := append([]byte{p.ICMPv4.Type, p.ICMPv4.Code, byte(p.ICMPv4.Checksum >> 8), byte(p.ICMPv4.Checksum)}, p.ICMPv4.Body...)
	if Checksum(seg) != 0 {
		t.Error("icmpv4 checksum does not validate")
	}
}

func TestIPv6ExtensionHeaderSkip(t *testing.T) {
	// Hand-build IPv6 + hop-by-hop + UDP.
	udpSeg, err := Serialize(&UDP{SrcPort: 1, DstPort: 2, Src: ip61, Dst: ip62})
	if err != nil {
		t.Fatal(err)
	}
	hbh := append([]byte{uint8(IPProtocolUDP), 0, 1, 4, 0, 0, 0, 0}, udpSeg...)
	frame, err := Serialize(
		&Ethernet{Dst: mac2, Src: mac1, Type: EtherTypeIPv6},
		&IPv6{NextHeader: IPProtocolHopByHop, Src: ip61, Dst: ip62},
		Raw(hbh),
	)
	if err != nil {
		t.Fatal(err)
	}
	p := Parse(frame)
	if p.Err != nil {
		t.Fatal(p.Err)
	}
	if p.UDP == nil {
		t.Fatal("UDP not found past extension header")
	}
	if len(p.IPv6.ExtHeaders) != 1 || p.IPv6.ExtHeaders[0] != IPProtocolHopByHop {
		t.Errorf("ext headers: %v", p.IPv6.ExtHeaders)
	}
}

func TestParseGarbageIsBestEffort(t *testing.T) {
	frame, err := Serialize(
		&Ethernet{Dst: mac2, Src: mac1, Type: EtherTypeIPv6},
		Raw("too short for ipv6"),
	)
	if err != nil {
		t.Fatal(err)
	}
	p := Parse(frame)
	if p.Err == nil {
		t.Fatal("want decode error")
	}
	if p.Ethernet == nil {
		t.Fatal("outer layer should still decode")
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: 00 01 f2 03 f4 f5 f6 f7 -> sum 0xddf2 -> cksum 0x220d.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data); got != 0x220d {
		t.Errorf("checksum = %04x, want 220d", got)
	}
}

func TestChecksumOddLength(t *testing.T) {
	if Checksum([]byte{0xff}) != ^uint16(0xff00) {
		t.Error("odd-length padding wrong")
	}
}

// Property: serializing a UDP/IPv6 packet and re-parsing it yields the same
// ports and payload for arbitrary payloads.
func TestQuickUDPRoundTrip(t *testing.T) {
	f := func(sp, dp uint16, payload []byte) bool {
		frame, err := Serialize(
			&Ethernet{Dst: mac2, Src: mac1, Type: EtherTypeIPv6},
			&IPv6{NextHeader: IPProtocolUDP, Src: ip61, Dst: ip62},
			&UDP{SrcPort: sp, DstPort: dp, Src: ip61, Dst: ip62},
			Raw(payload),
		)
		if err != nil {
			return false
		}
		p := Parse(frame)
		if p.Err != nil || p.UDP == nil {
			return false
		}
		return p.UDP.SrcPort == sp && p.UDP.DstPort == dp && bytes.Equal(p.UDP.PayloadData, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the Internet checksum of any segment with its computed checksum
// inserted validates to zero.
func TestQuickChecksumSelfValidates(t *testing.T) {
	f := func(data []byte) bool {
		ck := Checksum(data)
		seg := append(append([]byte(nil), data...), byte(ck>>8), byte(ck))
		return len(data)%2 == 1 || Checksum(seg) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBufferPrependGrowth(t *testing.T) {
	b := NewBuffer(2)
	copy(b.Prepend(4), "tail")
	copy(b.Prepend(8), "headpart")
	if got := string(b.Bytes()); got != "headparttail" {
		t.Errorf("buffer = %q", got)
	}
	if b.Len() != 12 {
		t.Errorf("len = %d", b.Len())
	}
	b.Clear()
	if b.Len() != 0 {
		t.Errorf("after clear len = %d", b.Len())
	}
}

// TestBufferSteadyState: once a reused Buffer has held a bulk segment,
// re-serializing that segment (and its 74 bytes of Ethernet+IPv6+TCP
// headers) into it allocates nothing, and the bytes match a fresh
// Serialize.
func TestBufferSteadyState(t *testing.T) {
	payload := bytes.Repeat([]byte{0x17}, 32000)
	layers := []SerializableLayer{
		&Ethernet{Dst: mac2, Src: mac1, Type: EtherTypeIPv6},
		&IPv6{NextHeader: IPProtocolTCP, Src: ip61, Dst: ip62, HopLimit: 64},
		&TCP{SrcPort: 40000, DstPort: 443, Seq: 1, Ack: 1, Flags: TCPFlagPSH | TCPFlagACK, Src: ip61, Dst: ip62},
		Raw(payload),
	}
	want, err := Serialize(layers...)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuffer(128)
	var got []byte
	allocs := testing.AllocsPerRun(20, func() {
		got, err = SerializeInto(b, layers...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("SerializeInto allocated %.1f times per 32,000-byte segment, want 0", allocs)
	}
	if !bytes.Equal(got, want) {
		t.Error("reused-buffer segment differs from a fresh Serialize")
	}
}

func TestLayerTypeStrings(t *testing.T) {
	for lt, want := range map[LayerType]string{
		LayerTypeEthernet: "Ethernet", LayerTypeARP: "ARP", LayerTypeIPv4: "IPv4",
		LayerTypeIPv6: "IPv6", LayerTypeICMPv4: "ICMPv4", LayerTypeICMPv6: "ICMPv6",
		LayerTypeUDP: "UDP", LayerTypeTCP: "TCP", LayerTypePayload: "Payload",
	} {
		if lt.String() != want {
			t.Errorf("%d.String() = %q, want %q", lt, lt.String(), want)
		}
	}
	if EtherTypeIPv6.String() != "IPv6" || IPProtocolUDP.String() != "UDP" {
		t.Error("enum strings wrong")
	}
}
