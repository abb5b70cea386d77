package packet

import "fmt"

// Decoder parses frames without allocating: it owns one instance of every
// layer type plus a single Packet, and Parse/ParseIP fill those in place.
// It is the package's only layer walk: the package-level Parse/ParseIP
// wrap a fresh Decoder per call. On the LAN the switch owns the one Decoder every delivered frame
// is walked by, and shares the result with each tap and host the frame
// reaches (netsim.Network.Decode); the sites that parse other bytes (the
// router's WAN side, the cloud, the scanner's quoted packets, a pcap
// replay) own one each.
//
// The returned *Packet and every layer it points to are overwritten by the
// next Parse/ParseIP call on the same Decoder, so callers must not retain
// the Packet or any layer struct across calls; a shared result is also
// read-only. Retaining slices the layers expose (payload views into the
// frame) is governed by the frame's own lifetime.
//
// A Decoder is not safe for concurrent use; give each goroutine-confined
// owner its own.
type Decoder struct {
	pkt Packet

	eth Ethernet
	arp ARP
	ip4 IPv4
	ip6 IPv6
	ic4 ICMPv4
	ic6 ICMPv6
	udp UDP
	tcp TCP
}

// NewDecoder returns a ready Decoder.
func NewDecoder() *Decoder { return &Decoder{} }

// Parse decodes an Ethernet frame in place. The result is valid until the
// next call on this Decoder.
func (d *Decoder) Parse(frame []byte) *Packet {
	d.reset()
	return d.walk(frame, LayerTypeEthernet)
}

// ParseIP decodes a raw IP packet (no link layer) in place, dispatching
// on the version nibble. The result is valid until the next call on this
// Decoder.
func (d *Decoder) ParseIP(data []byte) *Packet {
	d.reset()
	if len(data) == 0 {
		d.pkt.Err = ErrTruncated
		return &d.pkt
	}
	switch data[0] >> 4 {
	case 4:
		return d.walk(data, LayerTypeIPv4)
	case 6:
		return d.walk(data, LayerTypeIPv6)
	}
	d.pkt.Err = fmt.Errorf("packet: unknown IP version %d", data[0]>>4)
	return &d.pkt
}

func (d *Decoder) reset() {
	d.pkt = Packet{}
}

// walk decodes the layer chain from next into the Decoder-owned layer
// structs. Each struct is zeroed before its DecodeFromBytes so no field
// survives from a previous frame.
func (d *Decoder) walk(data []byte, next LayerType) *Packet {
	p := &d.pkt
	for next != LayerTypeZero && next != LayerTypePayload {
		var dl DecodingLayer
		switch next {
		case LayerTypeEthernet:
			d.eth = Ethernet{}
			p.Ethernet = &d.eth
			dl = &d.eth
		case LayerTypeARP:
			d.arp = ARP{}
			p.ARP = &d.arp
			dl = &d.arp
		case LayerTypeIPv4:
			d.ip4 = IPv4{}
			p.IPv4 = &d.ip4
			dl = &d.ip4
		case LayerTypeIPv6:
			d.ip6 = IPv6{}
			p.IPv6 = &d.ip6
			dl = &d.ip6
		case LayerTypeICMPv4:
			d.ic4 = ICMPv4{}
			p.ICMPv4 = &d.ic4
			dl = &d.ic4
		case LayerTypeICMPv6:
			d.ic6 = ICMPv6{}
			p.ICMPv6 = &d.ic6
			dl = &d.ic6
		case LayerTypeUDP:
			d.udp = UDP{}
			p.UDP = &d.udp
			dl = &d.udp
		case LayerTypeTCP:
			d.tcp = TCP{}
			p.TCP = &d.tcp
			dl = &d.tcp
		default:
			p.Err = fmt.Errorf("packet: no decoder for %v", next)
			return p
		}
		if err := dl.DecodeFromBytes(data); err != nil {
			p.Err = fmt.Errorf("decoding %v: %w", next, err)
			return p
		}
		data = dl.Payload()
		next = dl.NextLayerType()
	}
	p.AppPayload = data
	return p
}
