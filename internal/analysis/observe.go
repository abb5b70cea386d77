// Package analysis implements the paper's measurement pipeline: it parses
// the captured packets of each connectivity experiment back into
// per-device observations (addressing, NDP, DAD, DHCPv6, DNS, data
// transmission, EUI-64 exposure) and derives every table and figure of the
// evaluation from them. Nothing in this package reads device profiles —
// only what is on the wire (plus the two active experiments).
package analysis

import (
	"net/netip"
	"strings"
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

// QueryKey identifies a distinct DNS question as the paper counts them.
type QueryKey struct {
	Name   string
	Type   dnsmsg.Type
	OverV6 bool
}

// FlowKey identifies a device's contact with a destination over a family.
type FlowKey struct {
	Domain string
	V6     bool
}

// DeviceObs is everything the pipeline extracted about one device in one
// experiment.
type DeviceObs struct {
	Name     string
	Category device.Category
	MAC      packet.MAC

	NDP bool
	// Assigned holds every IPv6 address attributed to the device (DAD
	// targets, NA announcements, DHCPv6 leases, traffic sources).
	Assigned map[netip.Addr]addr.Kind
	// Used holds addresses that sourced non-ND traffic.
	Used map[netip.Addr]bool
	// DADProbed holds addresses probed with duplicate address detection.
	DADProbed map[netip.Addr]bool
	// StatefulLease is the IA_NA address, if any.
	StatefulLease netip.Addr

	StatelessDHCPv6 bool
	StatefulDHCPv6  bool

	// Queries and positive responses observed, keyed by (name, type,
	// transport family).
	Queries   map[QueryKey]bool
	Responses map[QueryKey]bool

	// InternetFlows / LocalFlows: data contacts (non-DNS, non-DHCP).
	InternetFlows map[FlowKey]bool
	LocalV6Data   bool
	// InternetV6 / InternetV4: any global data over the family.
	InternetV6, InternetV4 bool
	// BytesV4 / BytesV6: application payload bytes the device sent to
	// Internet destinations.
	BytesV4, BytesV6 int

	// EUI64 exposure (Figure 5).
	EUI64GUAUsed bool
	EUI64DNS     bool
	EUI64Data    bool
	// EUI64DNSNames / EUI64DataDomains: names and destinations the EUI-64
	// source address was exposed to.
	EUI64DNSNames    map[string]bool
	EUI64DataDomains map[string]bool

	// Deferred attribution state: Internet destinations contacted before
	// the DNS/SNI mapping is complete. Attribution only labels flows — it
	// never changes which frames count — so parking the destination and
	// resolving it against the final IPToName map at Finalize reproduces
	// the two-pass result exactly. Cleared by Finalize.
	pendingFlows map[pendingFlow]bool
	pendingEUI64 map[netip.Addr]bool
}

// pendingFlow is an unattributed Internet contact: the destination address
// and the family it was reached over.
type pendingFlow struct {
	Dst netip.Addr
	V6  bool
}

func newDeviceObs(p *device.Profile, mac packet.MAC) *DeviceObs {
	return &DeviceObs{
		Name: p.Name, Category: p.Category, MAC: mac,
		Assigned:         map[netip.Addr]addr.Kind{},
		Used:             map[netip.Addr]bool{},
		DADProbed:        map[netip.Addr]bool{},
		Queries:          map[QueryKey]bool{},
		Responses:        map[QueryKey]bool{},
		InternetFlows:    map[FlowKey]bool{},
		EUI64DNSNames:    map[string]bool{},
		EUI64DataDomains: map[string]bool{},
		pendingFlows:     map[pendingFlow]bool{},
		pendingEUI64:     map[netip.Addr]bool{},
	}
}

// ExpObs is one experiment's observations.
type ExpObs struct {
	ID         string
	Mode       device.Mode
	Devices    map[string]*DeviceObs
	Functional map[string]bool
	// IPToName is the DNS/SNI-derived mapping used for attribution.
	IPToName map[netip.Addr]string
}

// addrAttribution records an address as assigned to a device.
func (o *DeviceObs) assign(a netip.Addr) {
	k := addr.Classify(a)
	switch k {
	case addr.KindGUA, addr.KindULA, addr.KindLLA:
		o.Assigned[a] = k
	}
}

func (o *DeviceObs) markUsed(a netip.Addr, mac packet.MAC) {
	if k := addr.Classify(a); k == addr.KindGUA || k == addr.KindULA || k == addr.KindLLA {
		o.Assigned[a] = k
		o.Used[a] = true
		if k == addr.KindGUA && addr.EUI64MatchesMAC(a, mac) {
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
	final  bool
	// answer and query are the DNS messages frames decode into, reused
	// frame after frame; only their decoded strings are retained.
	answer, query dnsmsg.Message
}

// NewObserver returns a streaming observer for one experiment run that
// decodes every frame it is fed itself, as a pcap replay needs.
func NewObserver(id string, mode device.Mode, macMap map[packet.MAC]*device.Profile) *Observer {
	return &Observer{
		obs: &ExpObs{
			ID: id, Mode: mode,
			Devices:  map[string]*DeviceObs{},
			IPToName: map[netip.Addr]string{},
		},
		macMap: macMap,
	}
}

func (o *Observer) devFor(mac packet.MAC) *DeviceObs {
	p, ok := o.macMap[mac]
	if !ok {
		return nil
	}
	d, ok := o.obs.Devices[p.Name]
	if !ok {
		d = newDeviceObs(p, mac)
		o.obs.Devices[p.Name] = d
	}
	return d
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
	obs := o.obs

	// Attribution sources, exactly the two §5.2.2 names: DNS answers and
	// TLS SNI. The DNS message is unpacked once and shared with the
	// inbound response extraction below.
	var dnsAnswer *dnsmsg.Message
	if p.UDP != nil && p.UDP.SrcPort == 53 {
		if m := &o.answer; dnsmsg.UnpackInto(m, p.UDP.PayloadData) == nil && m.Response {
			for _, rr := range m.Answers {
				if rr.Addr.IsValid() {
					obs.IPToName[rr.Addr] = dnsmsg.CanonicalName(rr.Name)
				}
			}
			dnsAnswer = m
		}
	}
	if p.TCP != nil && len(p.TCP.PayloadData) > 0 {
		if sni, err := tlssim.SNI(p.TCP.PayloadData); err == nil && sni != "" {
			obs.IPToName[p.DstIP()] = dnsmsg.CanonicalName(sni)
		}
	}

	// Per-device feature extraction.
	if d := o.devFor(p.Ethernet.Src); d != nil {
		observeOutbound(d, p, &o.query)
	}
	// Inbound: DNS responses and DHCPv6 replies addressed to devices.
	if dst := o.devFor(p.Ethernet.Dst); dst != nil {
		observeInbound(dst, p, dnsAnswer)
	}
}

// Finalize resolves the deferred attribution against the completed
// IPToName map, attaches the functionality outcomes, and returns the
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
	for _, d := range obs.Devices {
		for pf := range d.pendingFlows {
			if name := obs.IPToName[pf.Dst]; name != "" {
				d.InternetFlows[FlowKey{Domain: name, V6: pf.V6}] = true
			}
		}
		for a := range d.pendingEUI64 {
			if name := obs.IPToName[a]; name != "" {
				d.EUI64DataDomains[name] = true
			}
		}
		d.pendingFlows, d.pendingEUI64 = nil, nil
	}
	return obs
}

// observeOutbound extracts what a device's own frame shows; dns is the
// message a DNS query decodes into.
func observeOutbound(d *DeviceObs, p *packet.Packet, dns *dnsmsg.Message) {
	if p.IPv6 == nil {
		observeOutboundV4(d, p, dns)
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
			if ns, err := ndp.ParseNeighborSolicit(p.ICMPv6.Body); err == nil {
				if addr.Classify(src) == addr.KindUnspecified {
					// DAD probe: the sender is claiming the target.
					d.DADProbed[ns.Target] = true
					d.assign(ns.Target)
				}
			}
			return
		case packet.ICMPv6TypeNeighborAdvert:
			if na, err := ndp.ParseNeighborAdvert(p.ICMPv6.Body); err == nil {
				d.assign(na.Target)
			}
			return
		case packet.ICMPv6TypeRouterSolicit, packet.ICMPv6TypeRouterAdvert:
			return
		case packet.ICMPv6TypeEchoRequest:
			// Echo probes count as address *use* but not data transmission.
			d.markUsed(src, d.MAC)
			return
		default:
			return
		}
	}
	d.markUsed(src, d.MAC)
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
		observeQuery(d, p, dns, true, src)
	default:
		observeData(d, p, true, src)
	}
}

func observeOutboundV4(d *DeviceObs, p *packet.Packet, dns *dnsmsg.Message) {
	if p.IPv4 == nil {
		return
	}
	switch {
	case p.UDP != nil && (p.UDP.DstPort == 67 || p.UDP.DstPort == 68):
	case p.UDP != nil && p.UDP.DstPort == 53:
		observeQuery(d, p, dns, false, p.IPv4.Src)
	case p.ICMPv4 != nil:
	default:
		observeData(d, p, false, p.IPv4.Src)
	}
}

func observeQuery(d *DeviceObs, p *packet.Packet, m *dnsmsg.Message, overV6 bool, src netip.Addr) {
	if err := dnsmsg.UnpackInto(m, p.UDP.PayloadData); err != nil || m.Response || len(m.Questions) == 0 {
		return
	}
	q := m.Questions[0]
	d.Queries[QueryKey{Name: dnsmsg.CanonicalName(q.Name), Type: q.Type, OverV6: overV6}] = true
	if overV6 && addr.EUI64MatchesMAC(src, d.MAC) {
		d.EUI64DNS = true
		d.EUI64DNSNames[dnsmsg.CanonicalName(q.Name)] = true
	}
}

// observeData classifies a non-DNS, non-DHCP TCP/UDP transmission.
// Destination-name attribution is deferred: the destination is parked on
// the device and resolved against the completed IPToName map at Finalize.
func observeData(d *DeviceObs, p *packet.Packet, v6 bool, src netip.Addr) {
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
			d.pendingFlows[pendingFlow{Dst: dst, V6: true}] = true
			if addr.EUI64MatchesMAC(src, d.MAC) {
				d.EUI64Data = true
				d.pendingEUI64[dst] = true
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
		d.pendingFlows[pendingFlow{Dst: dst, V6: false}] = true
	}
}

// observeInbound extracts device-addressed DNS responses and DHCPv6
// replies. dns is the frame's already-unpacked DNS answer (nil when the
// frame is not a valid response from port 53), shared with the attribution
// pass so the message is decoded exactly once per frame.
func observeInbound(d *DeviceObs, p *packet.Packet, dns *dnsmsg.Message) {
	switch {
	case p.UDP != nil && p.UDP.SrcPort == 53:
		if dns == nil || len(dns.Questions) == 0 {
			return
		}
		m := *dns
		q := m.Questions[0]
		positive := false
		for _, rr := range m.Answers {
			if rr.Type == q.Type && (rr.Addr.IsValid() || rr.Target != "") {
				positive = true
			}
		}
		if positive {
			d.Responses[QueryKey{Name: dnsmsg.CanonicalName(q.Name), Type: q.Type, OverV6: p.IsIPv6()}] = true
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

// Post-extraction helpers.

// HasAddr reports whether the device assigned any address of the kind.
func (o *DeviceObs) HasAddr(k addr.Kind) bool {
	for _, kind := range o.Assigned {
		if kind == k {
			return true
		}
	}
	return false
}

// QueriedAAAA reports whether any AAAA query was seen, optionally
// restricted by transport.
func (o *DeviceObs) QueriedAAAA(overV6 *bool) bool {
	for k := range o.Queries {
		if k.Type == dnsmsg.TypeAAAA && (overV6 == nil || k.OverV6 == *overV6) {
			return true
		}
	}
	return false
}

// GotAAAAResponse reports positive AAAA answers, optionally by transport.
func (o *DeviceObs) GotAAAAResponse(overV6 *bool) bool {
	for k := range o.Responses {
		if k.Type == dnsmsg.TypeAAAA && (overV6 == nil || k.OverV6 == *overV6) {
			return true
		}
	}
	return false
}

// DNSOverV6 reports whether the device used the IPv6 resolver at all.
func (o *DeviceObs) DNSOverV6() bool {
	for k := range o.Queries {
		if k.OverV6 {
			return true
		}
	}
	return false
}

// EUI64GUAFromAssigned recomputes EUI-64 assignment from the address set.
func (o *DeviceObs) EUI64GUAFromAssigned() bool {
	for a, k := range o.Assigned {
		if k == addr.KindGUA && addr.EUI64MatchesMAC(a, o.MAC) {
			return true
		}
	}
	return false
}

// AllDNSNames returns every non-local name the device queried (the Table 7
// domain universe together with contacted destinations).
func (o *DeviceObs) AllDNSNames() map[string]bool {
	out := map[string]bool{}
	for k := range o.Queries {
		if !strings.HasSuffix(k.Name, ".local") {
			out[k.Name] = true
		}
	}
	return out
}

// DomainParty returns a domain's party label using the cloud registry (the
// analyst's curated destination list).
func DomainParty(cl *cloud.Cloud, name string) (cloud.Party, bool) {
	if d := cl.Lookup(name); d != nil {
		return d.Party, d.Tracker
	}
	return cloud.PartySupport, false
}
