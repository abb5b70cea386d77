package cloud

import (
	"bytes"
	"net/netip"
	"testing"

	"v6lab/internal/dnsmsg"
	"v6lab/internal/packet"
)

var clientV4 = netip.MustParseAddr("203.0.113.2")
var clientV6 = netip.MustParseAddr("2001:470:8:100::10")

func mustIP(t *testing.T, layers ...packet.SerializableLayer) []byte {
	t.Helper()
	out, err := packet.Serialize(layers...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func dnsQuery(t *testing.T, c *Cloud, src, server netip.Addr, name string, qtype dnsmsg.Type) *dnsmsg.Message {
	t.Helper()
	q := &dnsmsg.Message{ID: 99, RecursionDesired: true, Questions: []dnsmsg.Question{{Name: name, Type: qtype}}}
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	var ipL packet.SerializableLayer
	if src.Is4() {
		ipL = &packet.IPv4{Protocol: packet.IPProtocolUDP, Src: src, Dst: server}
	} else {
		ipL = &packet.IPv6{NextHeader: packet.IPProtocolUDP, Src: src, Dst: server}
	}
	req := mustIP(t, ipL, &packet.UDP{SrcPort: 40000, DstPort: 53, Src: src, Dst: server}, packet.Raw(wire))
	replies := c.HandleIP(req)
	if len(replies) != 1 {
		t.Fatalf("dns replies = %d", len(replies))
	}
	rp := packet.ParseIP(replies[0])
	if rp.Err != nil || rp.UDP == nil {
		t.Fatalf("bad dns reply: %v", rp.Err)
	}
	if rp.SrcIP() != server || rp.UDP.SrcPort != 53 || rp.UDP.DstPort != 40000 {
		t.Fatalf("reply addressing %v:%d -> %d", rp.SrcIP(), rp.UDP.SrcPort, rp.UDP.DstPort)
	}
	m, err := dnsmsg.Unpack(rp.UDP.PayloadData)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDNSAOverV4AndAAAAOverV6(t *testing.T) {
	c := New()
	d := c.AddDomain("api.vendor.example", PartyFirst, true, false)

	m := dnsQuery(t, c, clientV4, DNSv4, "api.vendor.example", dnsmsg.TypeA)
	if m.RCode != dnsmsg.RCodeSuccess || len(m.Answers) != 1 || m.Answers[0].Addr != d.V4[0] {
		t.Errorf("A answer: %+v", m.Answers)
	}

	m = dnsQuery(t, c, clientV6, DNSv6, "api.vendor.example", dnsmsg.TypeAAAA)
	if len(m.Answers) != 1 || m.Answers[0].Addr != d.V6[0] {
		t.Errorf("AAAA answer: %+v", m.Answers)
	}
	if !m.Answers[0].Addr.Is6() {
		t.Error("AAAA not v6")
	}
	if c.Queries[dnsmsg.TypeA] != 1 || c.Queries[dnsmsg.TypeAAAA] != 1 {
		t.Errorf("query counters: %v", c.Queries)
	}
}

func TestAAAAQueryOverIPv4Transport(t *testing.T) {
	// Many devices send AAAA queries over IPv4 only (Table 5); the resolver
	// must answer regardless of transport family.
	c := New()
	d := c.AddDomain("dual.example", PartyFirst, true, false)
	m := dnsQuery(t, c, clientV4, DNSv4, "dual.example", dnsmsg.TypeAAAA)
	if len(m.Answers) != 1 || m.Answers[0].Addr != d.V6[0] {
		t.Errorf("AAAA over v4: %+v", m.Answers)
	}
}

func TestNoAAAAGivesNodataWithSOA(t *testing.T) {
	c := New()
	c.AddDomain("v4only.example", PartyFirst, false, false)
	m := dnsQuery(t, c, clientV6, DNSv6, "v4only.example", dnsmsg.TypeAAAA)
	if m.RCode != dnsmsg.RCodeSuccess || len(m.Answers) != 0 {
		t.Errorf("nodata: rcode=%v answers=%d", m.RCode, len(m.Answers))
	}
	if len(m.Authority) != 1 || m.Authority[0].Type != dnsmsg.TypeSOA {
		t.Errorf("authority: %+v", m.Authority)
	}
}

func TestUnknownNameNXDomain(t *testing.T) {
	c := New()
	m := dnsQuery(t, c, clientV4, DNSv4, "nope.example", dnsmsg.TypeA)
	if m.RCode != dnsmsg.RCodeNXDomain {
		t.Errorf("rcode = %v", m.RCode)
	}
}

func TestHTTPSQueryAnswered(t *testing.T) {
	c := New()
	c.AddDomain("apple.example", PartyFirst, true, false)
	m := dnsQuery(t, c, clientV6, DNSv6, "apple.example", dnsmsg.TypeHTTPS)
	if len(m.Answers) != 1 || m.Answers[0].Type != dnsmsg.TypeHTTPS {
		t.Errorf("https: %+v", m.Answers)
	}
}

func TestTCPHandshakeDataAndTeardown(t *testing.T) {
	c := New()
	d := c.AddDomain("svc.example", PartyFirst, true, false)
	dst := d.V6[0]
	tcp := func(flags uint8, seq, ack uint32, payload []byte) []byte {
		return mustIP(t,
			&packet.IPv6{NextHeader: packet.IPProtocolTCP, Src: clientV6, Dst: dst},
			&packet.TCP{SrcPort: 55555, DstPort: 443, Seq: seq, Ack: ack, Flags: flags, Src: clientV6, Dst: dst},
			packet.Raw(payload))
	}
	// SYN -> SYN-ACK
	replies := c.HandleIP(tcp(packet.TCPFlagSYN, 100, 0, nil))
	if len(replies) != 1 {
		t.Fatalf("syn replies: %d", len(replies))
	}
	sa := packet.ParseIP(replies[0])
	if !sa.TCP.HasFlag(packet.TCPFlagSYN|packet.TCPFlagACK) || sa.TCP.Ack != 101 {
		t.Fatalf("synack: %+v", sa.TCP)
	}
	// data -> equal-sized response
	payload := []byte("0123456789")
	replies = c.HandleIP(tcp(packet.TCPFlagPSH|packet.TCPFlagACK, 101, sa.TCP.Seq+1, payload))
	if len(replies) != 1 {
		t.Fatalf("data replies: %d", len(replies))
	}
	resp := packet.ParseIP(replies[0])
	if len(resp.TCP.PayloadData) != len(payload) {
		t.Errorf("response size %d", len(resp.TCP.PayloadData))
	}
	if resp.TCP.Ack != 101+uint32(len(payload)) {
		t.Errorf("ack %d", resp.TCP.Ack)
	}
	// FIN -> FIN-ACK
	replies = c.HandleIP(tcp(packet.TCPFlagFIN|packet.TCPFlagACK, 111, resp.TCP.Seq, nil))
	if len(replies) != 1 || !packet.ParseIP(replies[0]).TCP.HasFlag(packet.TCPFlagFIN) {
		t.Error("no fin-ack")
	}
}

func TestTCPToUnknownAddressRST(t *testing.T) {
	c := New()
	dst := netip.MustParseAddr("198.18.99.99")
	req := mustIP(t,
		&packet.IPv4{Protocol: packet.IPProtocolTCP, Src: clientV4, Dst: dst},
		&packet.TCP{SrcPort: 1, DstPort: 443, Seq: 5, Flags: packet.TCPFlagSYN, Src: clientV4, Dst: dst})
	replies := c.HandleIP(req)
	if len(replies) != 1 || !packet.ParseIP(replies[0]).TCP.HasFlag(packet.TCPFlagRST) {
		t.Error("want RST")
	}
}

func TestV6UnreachableEndpointSilent(t *testing.T) {
	c := New()
	d := c.AddDomain("ghost.example", PartyFirst, true, false)
	d.V6Unreachable = true
	req := mustIP(t,
		&packet.IPv6{NextHeader: packet.IPProtocolTCP, Src: clientV6, Dst: d.V6[0]},
		&packet.TCP{SrcPort: 2, DstPort: 443, Flags: packet.TCPFlagSYN, Src: clientV6, Dst: d.V6[0]})
	if replies := c.HandleIP(req); len(replies) != 0 {
		t.Errorf("want silence, got %d replies", len(replies))
	}
	// ...but its IPv4 endpoint still answers.
	req4 := mustIP(t,
		&packet.IPv4{Protocol: packet.IPProtocolTCP, Src: clientV4, Dst: d.V4[0]},
		&packet.TCP{SrcPort: 2, DstPort: 443, Flags: packet.TCPFlagSYN, Src: clientV4, Dst: d.V4[0]})
	if replies := c.HandleIP(req4); len(replies) != 1 {
		t.Errorf("v4 replies = %d", len(replies))
	}
}

func TestNTP(t *testing.T) {
	c := New()
	req := mustIP(t,
		&packet.IPv4{Protocol: packet.IPProtocolUDP, Src: clientV4, Dst: NTPv4},
		&packet.UDP{SrcPort: 123, DstPort: 123, Src: clientV4, Dst: NTPv4},
		packet.Raw(make([]byte, 48)))
	replies := c.HandleIP(req)
	if len(replies) != 1 {
		t.Fatalf("ntp replies: %d", len(replies))
	}
	if p := packet.ParseIP(replies[0]); len(p.UDP.PayloadData) != 48 {
		t.Errorf("ntp payload %d", len(p.UDP.PayloadData))
	}
}

func TestEchoBothFamilies(t *testing.T) {
	c := New()
	d := c.AddDomain("ping.example", PartyFirst, true, false)
	req6 := mustIP(t,
		&packet.IPv6{NextHeader: packet.IPProtocolICMPv6, Src: clientV6, Dst: d.V6[0]},
		&packet.ICMPv6{Type: packet.ICMPv6TypeEchoRequest, Body: []byte{0, 1, 0, 1}, Src: clientV6, Dst: d.V6[0]})
	if replies := c.HandleIP(req6); len(replies) != 1 || packet.ParseIP(replies[0]).ICMPv6.Type != packet.ICMPv6TypeEchoReply {
		t.Error("no v6 echo reply")
	}
	req4 := mustIP(t,
		&packet.IPv4{Protocol: packet.IPProtocolICMPv4, Src: clientV4, Dst: d.V4[0]},
		&packet.ICMPv4{Type: packet.ICMPv4TypeEchoRequest, Body: []byte{0, 1, 0, 1}})
	if replies := c.HandleIP(req4); len(replies) != 1 || packet.ParseIP(replies[0]).ICMPv4.Type != packet.ICMPv4TypeEchoReply {
		t.Error("no v4 echo reply")
	}
}

func TestDeterministicAddressAllocation(t *testing.T) {
	c1, c2 := New(), New()
	for _, n := range []string{"a.example", "b.example", "c.example"} {
		c1.AddDomain(n, PartyFirst, true, false)
		c2.AddDomain(n, PartyFirst, true, false)
	}
	for n := range c1.Domains() {
		d1, d2 := c1.Lookup(n), c2.Lookup(n)
		if d1.V4[0] != d2.V4[0] {
			t.Errorf("%s: %v != %v", n, d1.V4[0], d2.V4[0])
		}
	}
	if c1.AddDomain("a.example", PartyFirst, true, false) != c1.Lookup("a.example") {
		t.Error("re-add created duplicate")
	}
}

func TestLookupAddrAndParties(t *testing.T) {
	c := New()
	d := c.AddDomain("track.analytics.example", PartyThird, false, true)
	if c.byAddr[d.V4[0]] != d {
		t.Error("address index misses the domain")
	}
	if d.Party.String() != "third" || PartyFirst.String() != "first" || PartySupport.String() != "support" {
		t.Error("party strings")
	}
	if d.HasAAAA() {
		t.Error("HasAAAA true for v4-only domain")
	}
	if c.Lookup(NTPDomain) == nil {
		t.Error("NTP domain missing")
	}
}

func TestGarbageInputIgnored(t *testing.T) {
	c := New()
	if out := c.HandleIP(nil); out != nil {
		t.Error("nil input")
	}
	if out := c.HandleIP([]byte{0xff, 0x00}); out != nil {
		t.Error("bad version")
	}
}

// TestNTPAfterBulkReply: TCP replies reuse one 0x17-filled payload buffer,
// so an NTP reply served after a bulk TCP reply must still carry the
// 48-byte server body — mode byte, then zeros — byte for byte.
func TestNTPAfterBulkReply(t *testing.T) {
	c := New()
	ntpReq := mustIP(t,
		&packet.IPv4{Protocol: packet.IPProtocolUDP, Src: clientV4, Dst: NTPv4},
		&packet.UDP{SrcPort: 123, DstPort: 123, Src: clientV4, Dst: NTPv4},
		packet.Raw(make([]byte, 48)))
	ntpReply := func() []byte {
		t.Helper()
		replies := c.HandleIP(ntpReq)
		if len(replies) != 1 {
			t.Fatalf("ntp replies: %d", len(replies))
		}
		return append([]byte(nil), replies[0]...)
	}
	before := ntpReply()
	want := make([]byte, 48)
	want[0] = 0x24
	if got := packet.ParseIP(before).UDP.PayloadData; !bytes.Equal(got, want) {
		t.Fatalf("ntp body = %x, want %x", got, want)
	}

	d := c.AddDomain("bulk.example", PartyFirst, true, false)
	for _, n := range []int{32000, 100, 32000} {
		req := mustIP(t,
			&packet.IPv6{NextHeader: packet.IPProtocolTCP, Src: clientV6, Dst: d.V6[0]},
			&packet.TCP{SrcPort: 55555, DstPort: 443, Seq: 1, Ack: 1, Flags: packet.TCPFlagPSH | packet.TCPFlagACK, Src: clientV6, Dst: d.V6[0]},
			packet.Raw(make([]byte, n)))
		replies := c.HandleIP(req)
		if len(replies) != 1 {
			t.Fatalf("data replies: %d", len(replies))
		}
		if got := packet.ParseIP(replies[0]).TCP.PayloadData; !bytes.Equal(got, bytes.Repeat([]byte{0x17}, n)) {
			t.Fatalf("%d-byte reply is not all 0x17", n)
		}
	}
	if after := ntpReply(); !bytes.Equal(after, before) {
		t.Errorf("ntp reply after a bulk TCP reply = %x, want %x", after, before)
	}
}
