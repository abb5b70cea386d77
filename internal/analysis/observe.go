// Package analysis implements the paper's measurement pipeline: it parses
// the captured packets of each connectivity experiment back into
// per-device observations (addressing, NDP, DAD, DHCPv6, DNS, data
// transmission, EUI-64 exposure) and derives every table and figure of the
// evaluation from them. Nothing in this package reads device profiles —
// only what is on the wire (plus the two active experiments).
package analysis

import (
	"net/netip"
	"slices"
	"time"

	"v6lab/internal/addr"
	"v6lab/internal/cloud"
	"v6lab/internal/device"
	"v6lab/internal/dhcp6"
	"v6lab/internal/dnsmsg"
	"v6lab/internal/ndp"
	"v6lab/internal/netsim"
	"v6lab/internal/packet"
	"v6lab/internal/router"
	"v6lab/internal/tlssim"
)

// v4Broadcast is the limited-broadcast address, hoisted so the data-frame
// classifier does not re-parse a constant per frame.
var v4Broadcast = netip.MustParseAddr("255.255.255.255")

// DeviceObs is everything the pipeline extracted about one device in one
// experiment.
type DeviceObs struct {
	Name     string
	Category device.Category
	MAC      packet.MAC

	NDP bool
	// Assigned holds every IPv6 address attributed to the device (DAD
	// targets, NA announcements, DHCPv6 leases, traffic sources), sorted.
	Assigned []AddrObs
	// StatefulLease is the IA_NA address, if any.
	StatefulLease netip.Addr

	StatelessDHCPv6 bool
	StatefulDHCPv6  bool

	// LocalV6Data: data to LAN-local IPv6 destinations. InternetV6 /
	// InternetV4: any global data over the family.
	LocalV6Data, InternetV6, InternetV4 bool
	// BytesV4 / BytesV6: application payload bytes the device sent to
	// Internet destinations.
	BytesV4, BytesV6 int

	// EUI64 exposure (Figure 5).
	EUI64GUAUsed bool
	EUI64DNS     bool
	EUI64Data    bool

	// The sorted name sets, over the IDs of the experiment's name table
	// (the dataset's in a group view): the DNS questions and positive
	// responses seen; the attributed Internet contacts; and the names and
	// destinations the EUI-64 source address was exposed to (type 0 keys).
	queries, responses, flows, eui64DNS, eui64Data []key

	// Deferred attribution state, cleared by Finalize: the Internet
	// destinations contacted, sorted, which Finalize names from the final
	// mapping; and the last destination and source address seen, which a
	// flow's frames repeat.
	pending, pendingEUI64 []netip.Addr
	lastDst, lastSrc      netip.Addr
}

// AddrObs is one IPv6 address attributed to a device.
type AddrObs struct {
	Addr netip.Addr
	Kind addr.Kind
	// Used: the address sourced non-ND traffic. Probed: the device probed
	// it with duplicate address detection.
	Used, Probed bool
}

// ExpObs is one experiment's observations.
type ExpObs struct {
	ID         string
	Mode       device.Mode
	Devices    map[string]*DeviceObs
	Functional map[string]bool
	// names is the canonical name of each ID the device sets hold.
	names []string
}

// find returns a's index in the sorted Assigned, and whether it is there.
func (o *DeviceObs) find(a netip.Addr) (int, bool) {
	return slices.BinarySearchFunc(o.Assigned, a, func(e AddrObs, a netip.Addr) int { return e.Addr.Compare(a) })
}

// attribute returns the device's entry for a, adding it when a is of a
// kind the paper attributes (GUA, ULA, LLA); nil otherwise.
func (o *DeviceObs) attribute(a netip.Addr) *AddrObs {
	i, ok := o.find(a)
	if !ok {
		k := addr.Classify(a)
		if k != addr.KindGUA && k != addr.KindULA && k != addr.KindLLA {
			return nil
		}
		o.Assigned = slices.Insert(o.Assigned, i, AddrObs{Addr: a, Kind: k})
	}
	return &o.Assigned[i]
}

func (o *DeviceObs) markUsed(a netip.Addr) {
	if a == o.lastSrc {
		return
	}
	o.lastSrc = a
	if e := o.attribute(a); e != nil && !e.Used {
		e.Used = true
		if e.Kind == addr.KindGUA && addr.EUI64MatchesMAC(a, o.MAC) {
			o.EUI64GUAUsed = true
		}
	}
}

// Observer is the streaming extraction engine: it consumes frames one at
// a time — at switch-delivery time through the netsim.Tap interface, or
// replayed from a pcap file in the same order — parses each frame exactly
// once, and accumulates the per-device observations online. DNS/SNI
// attribution is deferred: Internet contacts made before the name mapping
// is complete are parked per device and resolved against the final
// IPToName map at Finalize, which reproduces the two-pass semantics
// exactly (attribution only labels flows, it never filters them; see
// DESIGN.md).
//
// An Observer is single-threaded, like the run it taps. It retains no
// frame bytes — only extracted values — so it is safe to feed arena-backed
// frames that the switch recycles as soon as its queue drains.
type Observer struct {
	obs *ExpObs
	// net, when set, is the switch the observer taps, and frames are read
	// through its shared per-delivery view; otherwise dec walks them.
	net    *netsim.Network
	dec    packet.Decoder
	macMap map[packet.MAC]*device.Profile
	// devs resolves a packed MAC to its device (nil for no device's), and
	// near caches the last two: a reply swaps its request's MACs.
	devs  map[uint64]*DeviceObs
	near  [2]macDev
	syms  symtab
	final bool
	// ipName holds the ID of the name the last DNS answer or TLS server
	// name gave each address.
	ipName map[netip.Addr]uint32
	// answer and query are the DNS messages frames decode into, reused
	// frame after frame; their names are interned in syms.
	answer, query dnsmsg.Message
}

// NewObserver returns a streaming observer for one experiment run that
// decodes every frame it is fed itself, as a pcap replay needs.
func NewObserver(id string, mode device.Mode, macMap map[packet.MAC]*device.Profile) *Observer {
	o := &Observer{
		obs:    &ExpObs{ID: id, Mode: mode, Devices: map[string]*DeviceObs{}},
		macMap: macMap,
		devs:   map[uint64]*DeviceObs{},
		ipName: map[netip.Addr]uint32{},
		syms:   symtab{ids: map[string]sym{}},
	}
	o.answer.Names, o.query.Names = &o.syms, &o.syms
	return o
}

// macDev is a resolved MAC, packed with bit 48 set so no key is zero.
type macDev struct {
	k uint64
	d *DeviceObs
}

func (o *Observer) devFor(mac packet.MAC) *DeviceObs {
	if mac[0]&1 != 0 {
		return nil // multicast: no device's
	}
	k := 1<<48 | uint64(mac[0])<<40 | uint64(mac[1])<<32 | uint64(mac[2])<<24 | uint64(mac[3])<<16 | uint64(mac[4])<<8 | uint64(mac[5])
	for _, m := range o.near {
		if m.k == k {
			return m.d
		}
	}
	d, ok := o.devs[k]
	if !ok {
		if p := o.macMap[mac]; p != nil {
			d = &DeviceObs{Name: p.Name, Category: p.Category, MAC: mac}
			o.obs.Devices[p.Name] = d
		}
		o.devs[k] = d
	}
	o.near[1], o.near[0] = o.near[0], macDev{k, d}
	return d
}

// park records an Internet contact for attribution at Finalize.
func (d *DeviceObs) park(dst netip.Addr) {
	if dst != d.lastDst {
		d.lastDst = dst
		d.pending = insertAddr(d.pending, dst)
	}
}

func insertAddr(s []netip.Addr, a netip.Addr) []netip.Addr {
	if i, ok := slices.BinarySearchFunc(s, a, netip.Addr.Compare); !ok {
		s = slices.Insert(s, i, a)
	}
	return s
}

// Add consumes one delivered frame (the netsim.Tap contract). The frame
// is parsed once; the timestamp is unused — analysis never reads capture
// times — but kept for Tap compatibility.
func (o *Observer) Add(_ time.Time, frame []byte) {
	var p *packet.Packet
	if o.net != nil {
		p = o.net.Decode(frame)
	} else {
		p = o.dec.Parse(frame)
	}
	if p.Err != nil || p.Ethernet == nil {
		return
	}

	// Attribution sources, exactly the two §5.2.2 names: DNS answers and
	// TLS SNI. The DNS message is unpacked once and shared with the
	// inbound response extraction below.
	var dnsAnswer *dnsmsg.Message
	if p.UDP != nil && p.UDP.SrcPort == 53 {
		if m := &o.answer; dnsmsg.UnpackInto(m, p.UDP.PayloadData) == nil && m.Response {
			for _, rr := range m.Answers {
				if rr.Addr.IsValid() {
					o.ipName[rr.Addr] = o.syms.id(rr.Name)
				}
			}
			dnsAnswer = m
		}
	}
	if p.TCP != nil && len(p.TCP.PayloadData) > 0 {
		if sni, err := tlssim.SNI(p.TCP.PayloadData); err == nil && len(sni) > 0 {
			o.ipName[p.DstIP()] = o.syms.lookup(sni).id
		}
	}

	// Per-device feature extraction.
	if d := o.devFor(p.Ethernet.Src); d != nil {
		o.outbound(d, p)
	}
	// Inbound: DNS responses and DHCPv6 replies addressed to devices.
	if d := o.devFor(p.Ethernet.Dst); d != nil {
		o.inbound(d, p, dnsAnswer)
	}
}

// Finalize resolves the deferred attribution against the completed
// name mapping, attaches the functionality outcomes, and returns the
// finished observations. Call it after the last Add; repeated calls
// return the same finished observations (FromStudy may assemble several
// datasets over one study), and further Adds are a caller bug.
func (o *Observer) Finalize(functional map[string]bool) *ExpObs {
	if o.final {
		return o.obs
	}
	o.final = true
	obs := o.obs
	obs.Functional = functional
	obs.names = o.syms.names
	for _, d := range obs.Devices {
		for _, a := range d.pending {
			if id, ok := o.ipName[a]; ok && o.syms.names[id] != "" {
				d.flows = append(d.flows, mkkey(id, 0, a.Is6()))
			}
		}
		for _, a := range d.pendingEUI64 {
			if id, ok := o.ipName[a]; ok && o.syms.names[id] != "" {
				d.eui64Data = append(d.eui64Data, mkkey(id, 0, false))
			}
		}
		d.flows, d.eui64Data = sorted(d.flows), sorted(d.eui64Data)
		d.pending, d.pendingEUI64, d.lastDst, d.lastSrc = nil, nil, netip.Addr{}, netip.Addr{}
	}
	return obs
}

// outbound extracts what a device's own frame shows.
func (o *Observer) outbound(d *DeviceObs, p *packet.Packet) {
	if p.IPv6 == nil {
		o.outboundV4(d, p)
		return
	}
	src := p.IPv6.Src
	if p.ICMPv6 != nil {
		t := p.ICMPv6.Type
		if ndp.IsNDPType(t) {
			d.NDP = true
		}
		switch t {
		case packet.ICMPv6TypeNeighborSolicit:
			// A DAD probe (from ::) claims the target for the sender.
			if ns, err := ndp.ParseNeighborSolicit(p.ICMPv6.Body); err == nil && addr.Classify(src) == addr.KindUnspecified {
				if e := d.attribute(ns.Target); e != nil {
					e.Probed = true
				}
			}
		case packet.ICMPv6TypeNeighborAdvert:
			if na, err := ndp.ParseNeighborAdvert(p.ICMPv6.Body); err == nil {
				d.attribute(na.Target)
			}
		case packet.ICMPv6TypeEchoRequest:
			// Echo probes count as address *use* but not data transmission.
			d.markUsed(src)
		}
		return
	}
	d.markUsed(src)
	switch {
	case p.UDP != nil && p.UDP.DstPort == dhcp6.ServerPort:
		if m, err := dhcp6.Unmarshal(p.UDP.PayloadData); err == nil {
			switch m.Type {
			case dhcp6.InfoRequest:
				d.StatelessDHCPv6 = true
			case dhcp6.Solicit, dhcp6.Request:
				d.StatefulDHCPv6 = true
			}
		}
	case p.UDP != nil && p.UDP.DstPort == 53:
		o.observeQuery(d, p, true, src)
	default:
		o.observeData(d, p, true, src)
	}
}

func (o *Observer) outboundV4(d *DeviceObs, p *packet.Packet) {
	if p.IPv4 == nil {
		return
	}
	switch {
	case p.UDP != nil && (p.UDP.DstPort == 67 || p.UDP.DstPort == 68):
	case p.UDP != nil && p.UDP.DstPort == 53:
		o.observeQuery(d, p, false, p.IPv4.Src)
	case p.ICMPv4 != nil:
	default:
		o.observeData(d, p, false, p.IPv4.Src)
	}
}

func (o *Observer) observeQuery(d *DeviceObs, p *packet.Packet, overV6 bool, src netip.Addr) {
	m := &o.query
	if err := dnsmsg.UnpackInto(m, p.UDP.PayloadData); err != nil || m.Response || len(m.Questions) == 0 {
		return
	}
	q := m.Questions[0]
	id := o.syms.id(q.Name)
	d.queries = insert(d.queries, mkkey(id, q.Type, overV6))
	if overV6 && addr.EUI64MatchesMAC(src, d.MAC) {
		d.EUI64DNS = true
		d.eui64DNS = insert(d.eui64DNS, mkkey(id, 0, false))
	}
}

// observeData classifies a non-DNS, non-DHCP TCP/UDP transmission.
// Destination-name attribution is deferred: the destination is parked on
// the device and resolved against the completed mapping at Finalize.
func (o *Observer) observeData(d *DeviceObs, p *packet.Packet, v6 bool, src netip.Addr) {
	if p.TCP == nil && p.UDP == nil {
		return
	}
	dst := p.DstIP()
	payload := len(p.TransportPayload())
	if v6 {
		switch addr.Classify(dst) {
		case addr.KindGUA:
			if router.GUAPrefix.Contains(dst) {
				// LAN-internal global traffic stays local.
				d.LocalV6Data = true
				return
			}
			d.InternetV6 = true
			d.BytesV6 += payload
			d.park(dst)
			if addr.EUI64MatchesMAC(src, d.MAC) {
				d.EUI64Data = true
				d.pendingEUI64 = insertAddr(d.pendingEUI64, dst)
			}
		case addr.KindULA, addr.KindLLA, addr.KindMulticast:
			d.LocalV6Data = true
		}
		return
	}
	// IPv4: anything outside the LAN (and not broadcast/multicast) is
	// Internet traffic.
	if dst.Is4() && !router.LANv4Prefix.Contains(dst) && !dst.IsMulticast() &&
		dst != v4Broadcast {
		d.InternetV4 = true
		d.BytesV4 += payload
		d.park(dst)
	}
}

// inbound extracts device-addressed DNS responses and DHCPv6 replies. dns
// is the frame's already-unpacked DNS answer (nil when the frame is not a
// valid response from port 53), shared with the attribution pass so the
// message is decoded exactly once per frame.
func (o *Observer) inbound(d *DeviceObs, p *packet.Packet, dns *dnsmsg.Message) {
	switch {
	case p.UDP != nil && p.UDP.SrcPort == 53:
		if dns == nil || len(dns.Questions) == 0 {
			return
		}
		q := dns.Questions[0]
		for _, rr := range dns.Answers {
			if rr.Type == q.Type && (rr.Addr.IsValid() || rr.Target != "") {
				d.responses = insert(d.responses, mkkey(o.syms.id(q.Name), q.Type, p.IsIPv6()))
				return
			}
		}
	case p.UDP != nil && p.UDP.SrcPort == dhcp6.ServerPort:
		m, err := dhcp6.Unmarshal(p.UDP.PayloadData)
		if err != nil {
			return
		}
		if m.Type == dhcp6.Reply && m.IANA != nil && len(m.IANA.Addrs) > 0 {
			// IA_NA leases are tracked separately: the paper's SLAAC
			// address counts exclude server-assigned addresses.
			d.StatefulLease = m.IANA.Addrs[0].Addr
		}
	}
}

// HasAddr reports whether the device assigned any address of the kind.
func (o *DeviceObs) HasAddr(k addr.Kind) bool {
	return slices.ContainsFunc(o.Assigned, func(a AddrObs) bool { return a.Kind == k })
}

// QueriedAAAA reports whether any AAAA query was seen, optionally
// restricted by transport.
func (o *DeviceObs) QueriedAAAA(overV6 *bool) bool { return anyAAAA(o.queries, overV6) }

// GotAAAAResponse reports positive AAAA answers, optionally by transport.
func (o *DeviceObs) GotAAAAResponse(overV6 *bool) bool { return anyAAAA(o.responses, overV6) }

func anyAAAA(set []key, overV6 *bool) bool {
	return slices.ContainsFunc(set, func(k key) bool {
		return k.typ() == dnsmsg.TypeAAAA && (overV6 == nil || k.v6() == *overV6)
	})
}

// DNSOverV6 reports whether the device used the IPv6 resolver at all.
func (o *DeviceObs) DNSOverV6() bool { return slices.ContainsFunc(o.queries, key.v6) }

// EUI64GUAFromAssigned recomputes EUI-64 assignment from the address set.
func (o *DeviceObs) EUI64GUAFromAssigned() bool {
	return slices.ContainsFunc(o.Assigned, func(a AddrObs) bool {
		return a.Kind == addr.KindGUA && addr.EUI64MatchesMAC(a.Addr, o.MAC)
	})
}

// slaac counts the assigned addresses by kind, leaving out the IA_NA
// lease: it is server-assigned, outside the paper's SLAAC inventory.
func (o *DeviceObs) slaac() (n [addr.KindMulticast]int, total int) {
	for _, a := range o.Assigned {
		if a.Addr != o.StatefulLease {
			n[a.Kind]++
			total++
		}
	}
	return n, total
}

// DomainParty returns a domain's party label using the cloud registry (the
// analyst's curated destination list).
func DomainParty(cl *cloud.Cloud, name string) (cloud.Party, bool) {
	if d := cl.Lookup(name); d != nil {
		return d.Party, d.Tracker
	}
	return cloud.PartySupport, false
}
