package packet

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// IPProtocol is the IPv4 protocol / IPv6 next-header number.
type IPProtocol uint8

// The IP protocol numbers used by the testbed.
const (
	IPProtocolICMPv4   IPProtocol = 1
	IPProtocolTCP      IPProtocol = 6
	IPProtocolUDP      IPProtocol = 17
	IPProtocolICMPv6   IPProtocol = 58
	IPProtocolNoNext   IPProtocol = 59
	IPProtocolHopByHop IPProtocol = 0
	IPProtocolDestOpts IPProtocol = 60
	IPProtocolFragment IPProtocol = 44
)

// String names well-known protocol numbers.
func (p IPProtocol) String() string {
	switch p {
	case IPProtocolICMPv4:
		return "ICMPv4"
	case IPProtocolTCP:
		return "TCP"
	case IPProtocolUDP:
		return "UDP"
	case IPProtocolICMPv6:
		return "ICMPv6"
	case IPProtocolNoNext:
		return "NoNextHeader"
	}
	return fmt.Sprintf("IPProtocol(%d)", uint8(p))
}

func transportLayerFor(p IPProtocol) LayerType {
	switch p {
	case IPProtocolICMPv4:
		return LayerTypeICMPv4
	case IPProtocolICMPv6:
		return LayerTypeICMPv6
	case IPProtocolUDP:
		return LayerTypeUDP
	case IPProtocolTCP:
		return LayerTypeTCP
	}
	return LayerTypePayload
}

// IPv4 is an IPv4 header (RFC 791) without options support on the
// serialization path; received options are skipped.
type IPv4 struct {
	TOS         uint8
	ID          uint16
	Flags       uint8 // 3-bit flags field (bit 1 = DF, bit 0 of wire = reserved)
	FragOffset  uint16
	TTL         uint8
	Protocol    IPProtocol
	Src, Dst    netip.Addr
	PayloadData []byte
}

const ipv4HeaderLen = 20

// LayerType implements Layer.
func (*IPv4) LayerType() LayerType { return LayerTypeIPv4 }

// DecodeFromBytes implements DecodingLayer.
func (ip *IPv4) DecodeFromBytes(data []byte) error {
	if len(data) < ipv4HeaderLen {
		return ErrTruncated
	}
	if v := data[0] >> 4; v != 4 {
		return fmt.Errorf("ipv4: version %d", v)
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < ipv4HeaderLen || len(data) < ihl {
		return ErrTruncated
	}
	ip.TOS = data[1]
	totalLen := int(binary.BigEndian.Uint16(data[2:4]))
	ip.ID = binary.BigEndian.Uint16(data[4:6])
	ff := binary.BigEndian.Uint16(data[6:8])
	ip.Flags = uint8(ff >> 13)
	ip.FragOffset = ff & 0x1fff
	ip.TTL = data[8]
	ip.Protocol = IPProtocol(data[9])
	ip.Src = netip.AddrFrom4([4]byte(data[12:16]))
	ip.Dst = netip.AddrFrom4([4]byte(data[16:20]))
	end := totalLen
	if end < ihl || end > len(data) {
		end = len(data)
	}
	ip.PayloadData = data[ihl:end]
	return nil
}

// NextLayerType implements DecodingLayer.
func (ip *IPv4) NextLayerType() LayerType { return transportLayerFor(ip.Protocol) }

// Payload implements DecodingLayer.
func (ip *IPv4) Payload() []byte { return ip.PayloadData }

// SerializeTo implements SerializableLayer. TTL defaults to 64 when zero.
func (ip *IPv4) SerializeTo(b *Buffer) error {
	if !ip.Src.Is4() || !ip.Dst.Is4() {
		return fmt.Errorf("ipv4: src/dst not IPv4 (%v -> %v)", ip.Src, ip.Dst)
	}
	payloadLen := b.Len()
	if payloadLen > 65535-ipv4HeaderLen {
		return fmt.Errorf("ipv4: payload %d exceeds 16-bit length field", payloadLen)
	}
	hdr := b.Prepend(ipv4HeaderLen)
	hdr[0] = 0x45
	hdr[1] = ip.TOS
	binary.BigEndian.PutUint16(hdr[2:4], uint16(ipv4HeaderLen+payloadLen))
	binary.BigEndian.PutUint16(hdr[4:6], ip.ID)
	binary.BigEndian.PutUint16(hdr[6:8], uint16(ip.Flags)<<13|ip.FragOffset&0x1fff)
	ttl := ip.TTL
	if ttl == 0 {
		ttl = 64
	}
	hdr[8] = ttl
	hdr[9] = uint8(ip.Protocol)
	s, d := ip.Src.As4(), ip.Dst.As4()
	copy(hdr[12:16], s[:])
	copy(hdr[16:20], d[:])
	hdr[10], hdr[11] = 0, 0
	binary.BigEndian.PutUint16(hdr[10:12], Checksum(hdr))
	return nil
}
