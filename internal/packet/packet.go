// Package packet implements decoding and serialization of the link-,
// network-, and transport-layer protocols the v6lab testbed exchanges:
// Ethernet, ARP, IPv4, IPv6 (with a subset of extension headers), ICMPv4,
// ICMPv6 (including the Neighbor Discovery messages and options), UDP, and
// TCP.
//
// The design follows the layer/decoder architecture popularized by
// gopacket: each protocol is a Layer that can decode itself from bytes and
// serialize itself into a prepend-oriented Buffer, and Parse walks a byte
// slice into a Packet holding the typed layers it found. Unlike gopacket
// the package is pure stdlib and intentionally supports only the protocols
// the study needs.
package packet

import (
	"errors"
	"fmt"
	"net/netip"
)

// LayerType identifies a protocol layer within a packet.
type LayerType int

// The layer types known to this package.
const (
	LayerTypeZero LayerType = iota
	LayerTypeEthernet
	LayerTypeARP
	LayerTypeIPv4
	LayerTypeIPv6
	LayerTypeICMPv4
	LayerTypeICMPv6
	LayerTypeUDP
	LayerTypeTCP
	LayerTypePayload
)

// String returns the conventional name of the layer type.
func (t LayerType) String() string {
	switch t {
	case LayerTypeEthernet:
		return "Ethernet"
	case LayerTypeARP:
		return "ARP"
	case LayerTypeIPv4:
		return "IPv4"
	case LayerTypeIPv6:
		return "IPv6"
	case LayerTypeICMPv4:
		return "ICMPv4"
	case LayerTypeICMPv6:
		return "ICMPv6"
	case LayerTypeUDP:
		return "UDP"
	case LayerTypeTCP:
		return "TCP"
	case LayerTypePayload:
		return "Payload"
	}
	return fmt.Sprintf("LayerType(%d)", int(t))
}

// Layer is implemented by every protocol layer in this package.
type Layer interface {
	// LayerType identifies the protocol of this layer.
	LayerType() LayerType
}

// DecodingLayer is a Layer that can fill itself in from wire bytes.
type DecodingLayer interface {
	Layer
	// DecodeFromBytes parses data into the receiver. The receiver retains
	// no references to data beyond the payload slice it exposes.
	DecodeFromBytes(data []byte) error
	// NextLayerType reports which layer follows this one on the wire, or
	// LayerTypeZero when the remainder is opaque payload.
	NextLayerType() LayerType
	// Payload returns the bytes this layer carries for the next layer.
	Payload() []byte
}

// ErrTruncated is returned when a layer's wire image is shorter than its
// fixed header requires.
var ErrTruncated = errors.New("packet: truncated")

// Packet is the result of parsing a frame: a pointer to each well-known
// layer found, nil for the layers the frame does not carry.
type Packet struct {
	Ethernet *Ethernet
	ARP      *ARP
	IPv4     *IPv4
	IPv6     *IPv6
	ICMPv4   *ICMPv4
	ICMPv6   *ICMPv6
	UDP      *UDP
	TCP      *TCP

	// AppPayload is whatever followed the innermost decoded layer.
	AppPayload []byte

	// Err records a mid-packet decode failure; layers decoded before the
	// failure are still populated.
	Err error
}

// ParseIP decodes a raw IP packet (no link layer), dispatching on the
// version nibble. The router's WAN side and the simulated cloud exchange
// packets in this form. Each call uses a fresh Decoder, so returned
// Packets never alias; hot paths own a Decoder instead.
func ParseIP(data []byte) *Packet { return NewDecoder().ParseIP(data) }

// Parse decodes an Ethernet frame into a Packet. Decoding is best-effort:
// a malformed inner layer sets Packet.Err but outer layers remain usable,
// mirroring how a capture pipeline must tolerate damaged traffic. Like
// ParseIP it uses a fresh Decoder per call.
func Parse(frame []byte) *Packet { return NewDecoder().Parse(frame) }

// SrcIP returns the network-layer source address, or the zero Addr when the
// packet has no IP layer.
func (p *Packet) SrcIP() netip.Addr {
	switch {
	case p.IPv6 != nil:
		return p.IPv6.Src
	case p.IPv4 != nil:
		return p.IPv4.Src
	}
	return netip.Addr{}
}

// DstIP returns the network-layer destination address, or the zero Addr
// when the packet has no IP layer.
func (p *Packet) DstIP() netip.Addr {
	switch {
	case p.IPv6 != nil:
		return p.IPv6.Dst
	case p.IPv4 != nil:
		return p.IPv4.Dst
	}
	return netip.Addr{}
}

// IsIPv6 reports whether the packet carries an IPv6 network layer.
func (p *Packet) IsIPv6() bool { return p.IPv6 != nil }

// TransportPayload returns the bytes carried above UDP or TCP, or nil when
// the packet has no transport layer.
func (p *Packet) TransportPayload() []byte {
	switch {
	case p.UDP != nil:
		return p.UDP.PayloadData
	case p.TCP != nil:
		return p.TCP.PayloadData
	}
	return nil
}

// SrcPort returns the transport source port, or 0 without a transport layer.
func (p *Packet) SrcPort() uint16 {
	switch {
	case p.UDP != nil:
		return p.UDP.SrcPort
	case p.TCP != nil:
		return p.TCP.SrcPort
	}
	return 0
}

// DstPort returns the transport destination port, or 0 without a transport
// layer.
func (p *Packet) DstPort() uint16 {
	switch {
	case p.UDP != nil:
		return p.UDP.DstPort
	case p.TCP != nil:
		return p.TCP.DstPort
	}
	return 0
}
