// Package cloud simulates the Internet side of the testbed: the
// authoritative DNS resolvers (standing in for the Google public DNS the
// paper configures), the device vendors' backends and CDNs, NTP, and
// third-party tracking services. The router forwards raw IP packets to the
// cloud and relays the replies back onto the LAN.
//
// Every destination domain carries the metadata the paper's analyses
// depend on: its A and AAAA records (AAAA presence is the root cause of
// most IPv6-only failures, §5.1.3), its party classification
// (first/support/third, §5.4), whether it is a tracking service (§5.4.3),
// and whether its IPv6 endpoint is actually reachable (§7, "Reachability
// of IPv6 Destinations").
package cloud

import (
	"encoding/binary"
	"fmt"
	"net/netip"

	"v6lab/internal/dnsmsg"
	"v6lab/internal/packet"
)

// Party classifies a destination domain per §5.4: first-party domains
// belong to the device vendor, support parties are cloud/CDN/NTP
// infrastructure, and everything else (trackers, analytics) is third party.
type Party int

// The party kinds.
const (
	PartyFirst Party = iota
	PartySupport
	PartyThird
)

// String names the party as the paper does.
func (p Party) String() string {
	switch p {
	case PartyFirst:
		return "first"
	case PartySupport:
		return "support"
	case PartyThird:
		return "third"
	}
	return fmt.Sprintf("Party(%d)", int(p))
}

// Domain is one Internet destination.
type Domain struct {
	// Name is the canonical (lowercase, no trailing dot) DNS name.
	Name string
	// V4 and V6 hold the A and AAAA records. An empty V6 means the domain
	// is not AAAA-ready.
	V4, V6 []netip.Addr
	Party  Party
	// Tracker marks third-party tracking/analytics services.
	Tracker bool
	// V6Unreachable models destinations that publish AAAA records whose
	// endpoints do not answer (paper §7).
	V6Unreachable bool
}

// HasAAAA reports whether the domain publishes AAAA records.
func (d *Domain) HasAAAA() bool { return len(d.V6) > 0 }

// Well-known simulated resolver addresses (Google public DNS).
var (
	DNSv4     = netip.MustParseAddr("8.8.8.8")
	DNSv6     = netip.MustParseAddr("2001:4860:4860::8888")
	NTPv4     = netip.MustParseAddr("203.0.113.123")
	NTPv6     = netip.MustParseAddr("2606:4700:f1::123")
	NTPDomain = "pool.ntp.example"
)

// Cloud is the simulated Internet.
type Cloud struct {
	domains map[string]*Domain
	byAddr  map[netip.Addr]*Domain
	nextV4  uint32 // host part within 198.18.0.0/15
	nextV6  uint64 // host part within 2606:4700:10::/48
	// Queries counts DNS questions served, by type, for diagnostics.
	Queries map[dnsmsg.Type]int

	// Scratch state for the packet path: HandleIP parses with a reusable
	// decoder and serializes every reply through reusable layer structs
	// into one reusable buffer, so returned reply slices are only valid
	// until the next HandleIP call on this cloud. The router consumes
	// replies synchronously (it frames them into the switch's arena),
	// which is what makes the reuse safe. Each Clone carries its own
	// scratch, keeping concurrent experiment environments independent.
	dec    packet.Decoder
	tx     packet.Buffer
	ip4L   packet.IPv4
	ip6L   packet.IPv6
	udpL   packet.UDP
	tcpL   packet.TCP
	ic4L   packet.ICMPv4
	ic6L   packet.ICMPv6
	rawL   packet.Raw
	fillL  packet.Fill
	layers [3]packet.SerializableLayer
	// ntp is the NTP reply body, zero past its mode byte.
	ntp   [48]byte
	reply [1][]byte
	// dnsQ and dnsR are the decoded query and the reply being built, and
	// dnsWire the reply's wire form, all reused across DNS questions.
	dnsQ, dnsR dnsmsg.Message
	dnsWire    []byte
}

// New creates an empty cloud with the NTP support domain preinstalled.
func New() *Cloud {
	c := &Cloud{
		domains: make(map[string]*Domain),
		byAddr:  make(map[netip.Addr]*Domain),
		Queries: make(map[dnsmsg.Type]int),
	}
	ntp := &Domain{Name: NTPDomain, V4: []netip.Addr{NTPv4}, V6: []netip.Addr{NTPv6}, Party: PartySupport}
	c.install(ntp)
	return c
}

func (c *Cloud) install(d *Domain) {
	c.domains[d.Name] = d
	for _, a := range d.V4 {
		c.byAddr[a] = d
	}
	for _, a := range d.V6 {
		c.byAddr[a] = d
	}
}

// Clone returns a cloud sharing this one's domain registry — immutable
// while experiments run — but with its own query counters, so concurrent
// experiment environments do not race on the diagnostics map. Do not call
// AddDomain or EnsureAAAA on a clone: a registry is finished on the
// master before any clone is taken.
func (c *Cloud) Clone() *Cloud {
	return &Cloud{
		domains: c.domains,
		byAddr:  c.byAddr,
		nextV4:  c.nextV4,
		nextV6:  c.nextV6,
		Queries: make(map[dnsmsg.Type]int),
	}
}

// AddDomain registers a destination, allocating deterministic endpoint
// addresses: every domain gets one A record; AAAA-ready domains also get
// one AAAA record.
func (c *Cloud) AddDomain(name string, party Party, hasAAAA, tracker bool) *Domain {
	name = dnsmsg.CanonicalName(name)
	if d, ok := c.domains[name]; ok {
		return d
	}
	d := &Domain{Name: name, Party: party, Tracker: tracker}
	c.nextV4++
	v4 := netip.AddrFrom4([4]byte{198, 18, byte(c.nextV4 >> 8), byte(c.nextV4)})
	d.V4 = []netip.Addr{v4}
	if hasAAAA {
		c.nextV6++
		b := [16]byte{0x26, 0x06, 0x47, 0x00, 0x00, 0x10}
		binary.BigEndian.PutUint64(b[8:16], c.nextV6)
		d.V6 = []netip.Addr{netip.AddrFrom16(b)}
	}
	c.install(d)
	return d
}

// EnsureAAAA gives an already-registered domain an AAAA record if it lacks
// one (used by the what-if ablations that model a fully v6-ready Internet).
func (c *Cloud) EnsureAAAA(name string) {
	d := c.Lookup(name)
	if d == nil || len(d.V6) > 0 {
		return
	}
	c.nextV6++
	b := [16]byte{0x26, 0x06, 0x47, 0x00, 0x00, 0x10}
	binary.BigEndian.PutUint64(b[8:16], c.nextV6)
	a := netip.AddrFrom16(b)
	d.V6 = []netip.Addr{a}
	c.byAddr[a] = d
}

// Lookup returns the registered domain, or nil.
func (c *Cloud) Lookup(name string) *Domain { return c.domains[dnsmsg.CanonicalName(name)] }

// Domains returns the registry; callers must not mutate it.
func (c *Cloud) Domains() map[string]*Domain { return c.domains }

// Resolve answers a DNS question the way the simulated resolver does, so
// the active-DNS experiment (§4.3) can bypass the packet path.
func (c *Cloud) Resolve(name string, qtype dnsmsg.Type) ([]dnsmsg.Record, dnsmsg.RCode) {
	d := c.Lookup(name)
	if d == nil {
		return nil, dnsmsg.RCodeNXDomain
	}
	var answers []dnsmsg.Record
	switch qtype {
	case dnsmsg.TypeA:
		for _, a := range d.V4 {
			answers = append(answers, dnsmsg.Record{Name: d.Name, Type: dnsmsg.TypeA, TTL: 300, Addr: a})
		}
	case dnsmsg.TypeAAAA:
		for _, a := range d.V6 {
			answers = append(answers, dnsmsg.Record{Name: d.Name, Type: dnsmsg.TypeAAAA, TTL: 300, Addr: a})
		}
	case dnsmsg.TypeHTTPS, dnsmsg.TypeSVCB:
		// Alias-less service binding; AAAA-ready domains advertise their
		// IPv6 endpoint via an ipv6hint, the HTTP/3 path Apple and Android
		// devices use.
		rr := dnsmsg.Record{Name: d.Name, Type: qtype, TTL: 300, Priority: 1, Target: "."}
		if len(d.V6) > 0 {
			rr.Addr = d.V6[0]
		}
		answers = append(answers, rr)
	}
	return answers, dnsmsg.RCodeSuccess
}

// HandleIP processes one raw IP packet arriving from the router's WAN side
// and returns zero or more raw IP reply packets. raw is read synchronously
// and none of it is kept, so it may be a frame the switch recycles after
// the call. The replies live in the cloud's scratch buffer: they are
// valid until the next HandleIP call, and until then the caller may
// rewrite them in place (the router's NAT44 does).
func (c *Cloud) HandleIP(raw []byte) [][]byte {
	p := c.dec.ParseIP(raw)
	if p.Err != nil {
		return nil
	}
	switch {
	case p.UDP != nil && p.UDP.DstPort == 53 && (p.DstIP() == DNSv4 || p.DstIP() == DNSv6):
		return c.handleDNS(p)
	case p.UDP != nil && p.UDP.DstPort == 123:
		return c.handleNTP(p)
	case p.TCP != nil:
		return c.handleTCP(p)
	case p.ICMPv6 != nil && p.ICMPv6.Type == packet.ICMPv6TypeEchoRequest:
		return c.handleEcho6(p)
	case p.ICMPv4 != nil && p.ICMPv4.Type == packet.ICMPv4TypeEchoRequest:
		return c.handleEcho4(p)
	}
	return nil
}

// reachable reports whether the packet's destination endpoint answers.
func (c *Cloud) reachable(dst netip.Addr) bool {
	d := c.byAddr[dst]
	if d == nil {
		return false
	}
	if dst.Is6() && !dst.Is4In6() && d.V6Unreachable {
		return false
	}
	return true
}

func (c *Cloud) replyUDP(p *packet.Packet, payload []byte) [][]byte {
	c.udpL = packet.UDP{SrcPort: p.UDP.DstPort, DstPort: p.UDP.SrcPort, Src: p.DstIP(), Dst: p.SrcIP()}
	c.rawL = payload
	return c.serializeReply(p.DstIP(), p.SrcIP(), &c.udpL, &c.rawL)
}

// serializeReply builds one raw IP reply (src → dst wrapping l4 and an
// optional payload layer) into the cloud's reusable buffer and returns it
// as the reply set. The bytes are valid until the next HandleIP call.
func (c *Cloud) serializeReply(src, dst netip.Addr, l4, payload packet.SerializableLayer) [][]byte {
	proto := protoOf(l4)
	var ipLayer packet.SerializableLayer
	if src.Is4() {
		c.ip4L = packet.IPv4{Protocol: proto, Src: src, Dst: dst}
		ipLayer = &c.ip4L
	} else {
		c.ip6L = packet.IPv6{NextHeader: proto, Src: src, Dst: dst}
		ipLayer = &c.ip6L
	}
	ls := append(c.layers[:0], ipLayer, l4)
	if payload != nil {
		ls = append(ls, payload)
	}
	out, err := packet.SerializeInto(&c.tx, ls...)
	if err != nil {
		return nil
	}
	c.reply[0] = out
	return c.reply[:1]
}

func (c *Cloud) handleDNS(p *packet.Packet) [][]byte {
	q := &c.dnsQ
	if err := dnsmsg.UnpackInto(q, p.UDP.PayloadData); err != nil || q.Response || len(q.Questions) == 0 {
		return nil
	}
	question := q.Questions[0]
	c.Queries[question.Type]++
	answers, rcode := c.Resolve(question.Name, question.Type)
	// Answers aliases Resolve's fresh slice and is only ever replaced,
	// never appended to; the other sections reuse their arrays.
	r := &c.dnsR
	*r = dnsmsg.Message{
		ID: q.ID, Response: true, RecursionDesired: q.RecursionDesired,
		RecursionAvailable: true, RCode: rcode,
		Questions: append(r.Questions[:0], q.Questions...),
		Answers:   answers,
		Authority: r.Authority[:0],
	}
	if len(answers) == 0 {
		// NODATA/NXDOMAIN negative answer carries the zone SOA, the shape
		// the paper observed ("no such name" error and/or SOA records).
		sld := dnsmsg.SLD(question.Name)
		r.Authority = append(r.Authority, dnsmsg.Record{
			Name: sld, Type: dnsmsg.TypeSOA, TTL: 900, Target: "ns1." + sld,
		})
	}
	var err error
	if c.dnsWire, err = r.AppendPack(c.dnsWire[:0]); err != nil {
		return nil
	}
	return c.replyUDP(p, c.dnsWire)
}

func (c *Cloud) handleNTP(p *packet.Packet) [][]byte {
	if !c.reachable(p.DstIP()) || len(p.UDP.PayloadData) < 48 {
		return nil
	}
	c.ntp[0] = 0x24 // LI=0 VN=4 mode=server
	return c.replyUDP(p, c.ntp[:])
}

// handleTCP implements a reactive TCP endpoint: SYN-ACK for open service
// ports on reachable endpoints, RST otherwise, ACK+equal-sized response for
// data, and FIN-ACK teardown.
func (c *Cloud) handleTCP(p *packet.Packet) [][]byte {
	t := p.TCP
	mk := func(flags uint8, seq, ack uint32, payload packet.SerializableLayer) [][]byte {
		c.tcpL = packet.TCP{
			SrcPort: t.DstPort, DstPort: t.SrcPort, Seq: seq, Ack: ack,
			Flags: flags, Src: p.DstIP(), Dst: p.SrcIP(),
		}
		return c.serializeReply(p.DstIP(), p.SrcIP(), &c.tcpL, payload)
	}
	if !c.reachable(p.DstIP()) {
		if c.byAddr[p.DstIP()] != nil && p.IsIPv6() {
			// AAAA-published but unreachable endpoint: silence (timeout).
			return nil
		}
		return mk(packet.TCPFlagRST|packet.TCPFlagACK, 0, t.Seq+1, nil)
	}
	// Server initial sequence number, deterministic per 4-tuple.
	isn := tupleHash(p.SrcIP(), p.DstIP(), t.SrcPort, t.DstPort)
	switch {
	case t.HasFlag(packet.TCPFlagSYN):
		return mk(packet.TCPFlagSYN|packet.TCPFlagACK, isn, t.Seq+1, nil)
	case t.HasFlag(packet.TCPFlagFIN):
		return mk(packet.TCPFlagFIN|packet.TCPFlagACK, t.Ack, t.Seq+1, nil)
	case len(t.PayloadData) > 0:
		// Acknowledge and answer with an equal-sized payload of 0x17 —
		// what TLS application data looks like on the wire — keeping
		// per-destination volume proportional to what the device sent
		// (Table 6's volume fractions count both directions).
		c.fillL = packet.Fill{Byte: 0x17, N: len(t.PayloadData)}
		return mk(packet.TCPFlagPSH|packet.TCPFlagACK, t.Ack, t.Seq+uint32(len(t.PayloadData)), &c.fillL)
	}
	return nil
}

func (c *Cloud) handleEcho6(p *packet.Packet) [][]byte {
	if !c.reachable(p.DstIP()) && p.DstIP() != DNSv6 {
		return nil
	}
	c.ic6L = packet.ICMPv6{
		Type: packet.ICMPv6TypeEchoReply, Body: p.ICMPv6.Body, Src: p.DstIP(), Dst: p.SrcIP(),
	}
	return c.serializeReply(p.DstIP(), p.SrcIP(), &c.ic6L, nil)
}

func (c *Cloud) handleEcho4(p *packet.Packet) [][]byte {
	if !c.reachable(p.DstIP()) && p.DstIP() != DNSv4 {
		return nil
	}
	c.ic4L = packet.ICMPv4{Type: packet.ICMPv4TypeEchoReply, Body: p.ICMPv4.Body}
	return c.serializeReply(p.DstIP(), p.SrcIP(), &c.ic4L, nil)
}

func protoOf(l packet.SerializableLayer) packet.IPProtocol {
	switch l.(type) {
	case *packet.UDP:
		return packet.IPProtocolUDP
	case *packet.TCP:
		return packet.IPProtocolTCP
	case *packet.ICMPv6:
		return packet.IPProtocolICMPv6
	case *packet.ICMPv4:
		return packet.IPProtocolICMPv4
	}
	return packet.IPProtocolNoNext
}

func tupleHash(a, b netip.Addr, p1, p2 uint16) uint32 {
	h := uint32(2166136261)
	mix := func(bs []byte) {
		for _, x := range bs {
			h = (h ^ uint32(x)) * 16777619
		}
	}
	ab, bb := a.As16(), b.As16()
	mix(ab[:])
	mix(bb[:])
	mix([]byte{byte(p1 >> 8), byte(p1), byte(p2 >> 8), byte(p2)})
	return h
}
