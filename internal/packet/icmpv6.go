package packet

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// ICMPv6 message types used by the testbed (RFC 4443, RFC 4861).
const (
	ICMPv6TypeDestUnreachable uint8 = 1
	ICMPv6TypePacketTooBig    uint8 = 2
	ICMPv6TypeEchoRequest     uint8 = 128
	ICMPv6TypeEchoReply       uint8 = 129
	ICMPv6TypeRouterSolicit   uint8 = 133
	ICMPv6TypeRouterAdvert    uint8 = 134
	ICMPv6TypeNeighborSolicit uint8 = 135
	ICMPv6TypeNeighborAdvert  uint8 = 136
	ICMPv6TypeMLDv2Report     uint8 = 143
)

// ICMPv6 is an ICMPv6 message: the 4-byte header plus the message body.
// The Neighbor Discovery message semantics on top of the body live in
// package ndp.
type ICMPv6 struct {
	Type     uint8
	Code     uint8
	Checksum uint16
	// Body is everything after the 4-byte header (message-specific).
	Body []byte
	// Src and Dst are used only to compute the pseudo-header checksum when
	// serializing; they are not part of the wire image. On decode they are
	// left zero (the IP layer carries the addresses).
	Src, Dst netip.Addr
}

// LayerType implements Layer.
func (*ICMPv6) LayerType() LayerType { return LayerTypeICMPv6 }

// DecodeFromBytes implements DecodingLayer.
func (ic *ICMPv6) DecodeFromBytes(data []byte) error {
	if len(data) < 4 {
		return ErrTruncated
	}
	ic.Type = data[0]
	ic.Code = data[1]
	ic.Checksum = binary.BigEndian.Uint16(data[2:4])
	ic.Body = data[4:]
	return nil
}

// NextLayerType implements DecodingLayer.
func (*ICMPv6) NextLayerType() LayerType { return LayerTypeZero }

// Payload implements DecodingLayer. ICMPv6 bodies are message-specific, so
// the payload is empty; consumers read Body.
func (*ICMPv6) Payload() []byte { return nil }

// SerializeTo implements SerializableLayer; whatever is already in the
// buffer becomes the message body, appended after Body.
func (ic *ICMPv6) SerializeTo(b *Buffer) error {
	if !ic.Src.IsValid() || !ic.Dst.IsValid() {
		return fmt.Errorf("icmpv6: Src/Dst required for checksum")
	}
	copy(b.Prepend(len(ic.Body)), ic.Body)
	hdr := b.Prepend(4)
	hdr[0] = ic.Type
	hdr[1] = ic.Code
	hdr[2], hdr[3] = 0, 0
	seg := b.Bytes()
	binary.BigEndian.PutUint16(seg[2:4], TransportChecksum(ic.Src, ic.Dst, uint8(IPProtocolICMPv6), seg))
	return nil
}

// VerifyChecksum recomputes the message checksum using the given IP
// addresses and reports whether it matches the received one.
func (ic *ICMPv6) VerifyChecksum(src, dst netip.Addr) bool {
	seg := make([]byte, 4+len(ic.Body))
	seg[0] = ic.Type
	seg[1] = ic.Code
	copy(seg[4:], ic.Body)
	return TransportChecksum(src, dst, uint8(IPProtocolICMPv6), seg) == ic.Checksum
}

// ICMPv4 message types used by the testbed.
const (
	ICMPv4TypeEchoReply   uint8 = 0
	ICMPv4TypeEchoRequest uint8 = 8
)

// ICMPv4 is an ICMPv4 message (RFC 792).
type ICMPv4 struct {
	Type     uint8
	Code     uint8
	Checksum uint16
	Body     []byte
}

// LayerType implements Layer.
func (*ICMPv4) LayerType() LayerType { return LayerTypeICMPv4 }

// DecodeFromBytes implements DecodingLayer.
func (ic *ICMPv4) DecodeFromBytes(data []byte) error {
	if len(data) < 4 {
		return ErrTruncated
	}
	ic.Type = data[0]
	ic.Code = data[1]
	ic.Checksum = binary.BigEndian.Uint16(data[2:4])
	ic.Body = data[4:]
	return nil
}

// NextLayerType implements DecodingLayer.
func (*ICMPv4) NextLayerType() LayerType { return LayerTypeZero }

// Payload implements DecodingLayer.
func (*ICMPv4) Payload() []byte { return nil }

// SerializeTo implements SerializableLayer.
func (ic *ICMPv4) SerializeTo(b *Buffer) error {
	copy(b.Prepend(len(ic.Body)), ic.Body)
	hdr := b.Prepend(4)
	hdr[0] = ic.Type
	hdr[1] = ic.Code
	hdr[2], hdr[3] = 0, 0
	binary.BigEndian.PutUint16(hdr[2:4], Checksum(b.Bytes()))
	return nil
}
