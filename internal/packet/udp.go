package packet

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// UDP is a UDP header plus payload (RFC 768).
type UDP struct {
	SrcPort, DstPort uint16
	Checksum         uint16
	PayloadData      []byte
	// Src and Dst feed the pseudo-header checksum on serialization.
	Src, Dst netip.Addr
}

const udpHeaderLen = 8

// LayerType implements Layer.
func (*UDP) LayerType() LayerType { return LayerTypeUDP }

// DecodeFromBytes implements DecodingLayer.
func (u *UDP) DecodeFromBytes(data []byte) error {
	if len(data) < udpHeaderLen {
		return ErrTruncated
	}
	u.SrcPort = binary.BigEndian.Uint16(data[0:2])
	u.DstPort = binary.BigEndian.Uint16(data[2:4])
	length := int(binary.BigEndian.Uint16(data[4:6]))
	u.Checksum = binary.BigEndian.Uint16(data[6:8])
	end := length
	if end < udpHeaderLen || end > len(data) {
		end = len(data)
	}
	u.PayloadData = data[udpHeaderLen:end]
	return nil
}

// NextLayerType implements DecodingLayer.
func (*UDP) NextLayerType() LayerType { return LayerTypePayload }

// Payload implements DecodingLayer.
func (u *UDP) Payload() []byte { return u.PayloadData }

// SerializeTo implements SerializableLayer; buffer contents become the
// datagram payload.
func (u *UDP) SerializeTo(b *Buffer) error {
	if !u.Src.IsValid() || !u.Dst.IsValid() {
		return fmt.Errorf("udp: Src/Dst required for checksum")
	}
	segLen, paySum := udpHeaderLen+b.Len(), b.contentSum()
	hdr := b.Prepend(udpHeaderLen)
	binary.BigEndian.PutUint16(hdr[0:2], u.SrcPort)
	binary.BigEndian.PutUint16(hdr[2:4], u.DstPort)
	binary.BigEndian.PutUint16(hdr[4:6], uint16(segLen))
	hdr[6], hdr[7] = 0, 0
	sum := foldChecksum(sum16(pseudoHeaderSum(u.Src, u.Dst, uint8(IPProtocolUDP), segLen), hdr) + paySum)
	if sum == 0 {
		sum = 0xffff
	}
	binary.BigEndian.PutUint16(hdr[6:8], sum)
	return nil
}

// TCP flag bits.
const (
	TCPFlagFIN uint8 = 1 << 0
	TCPFlagSYN uint8 = 1 << 1
	TCPFlagRST uint8 = 1 << 2
	TCPFlagPSH uint8 = 1 << 3
	TCPFlagACK uint8 = 1 << 4
)

// TCP is a TCP header plus payload (RFC 9293). Options are preserved as raw
// bytes on decode and emitted verbatim on serialize (padded to 32 bits).
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
	Checksum         uint16
	Options          []byte
	PayloadData      []byte
	// Src and Dst feed the pseudo-header checksum on serialization.
	Src, Dst netip.Addr
}

const tcpHeaderLen = 20

// LayerType implements Layer.
func (*TCP) LayerType() LayerType { return LayerTypeTCP }

// DecodeFromBytes implements DecodingLayer.
func (t *TCP) DecodeFromBytes(data []byte) error {
	if len(data) < tcpHeaderLen {
		return ErrTruncated
	}
	t.SrcPort = binary.BigEndian.Uint16(data[0:2])
	t.DstPort = binary.BigEndian.Uint16(data[2:4])
	t.Seq = binary.BigEndian.Uint32(data[4:8])
	t.Ack = binary.BigEndian.Uint32(data[8:12])
	dataOff := int(data[12]>>4) * 4
	if dataOff < tcpHeaderLen || len(data) < dataOff {
		return ErrTruncated
	}
	t.Flags = data[13] & 0x3f
	t.Window = binary.BigEndian.Uint16(data[14:16])
	t.Checksum = binary.BigEndian.Uint16(data[16:18])
	t.Options = data[tcpHeaderLen:dataOff]
	t.PayloadData = data[dataOff:]
	return nil
}

// NextLayerType implements DecodingLayer.
func (*TCP) NextLayerType() LayerType { return LayerTypePayload }

// Payload implements DecodingLayer.
func (t *TCP) Payload() []byte { return t.PayloadData }

// HasFlag reports whether all bits in mask are set.
func (t *TCP) HasFlag(mask uint8) bool { return t.Flags&mask == mask }

// SerializeTo implements SerializableLayer; buffer contents become the
// segment payload.
func (t *TCP) SerializeTo(b *Buffer) error {
	if !t.Src.IsValid() || !t.Dst.IsValid() {
		return fmt.Errorf("tcp: Src/Dst required for checksum")
	}
	optLen := (len(t.Options) + 3) &^ 3
	segLen, paySum := tcpHeaderLen+optLen+b.Len(), b.contentSum()
	hdr := b.Prepend(tcpHeaderLen + optLen)
	binary.BigEndian.PutUint16(hdr[0:2], t.SrcPort)
	binary.BigEndian.PutUint16(hdr[2:4], t.DstPort)
	binary.BigEndian.PutUint32(hdr[4:8], t.Seq)
	binary.BigEndian.PutUint32(hdr[8:12], t.Ack)
	hdr[12] = uint8((tcpHeaderLen+optLen)/4) << 4
	hdr[13] = t.Flags
	win := t.Window
	if win == 0 {
		win = 65535
	}
	binary.BigEndian.PutUint16(hdr[14:16], win)
	hdr[16], hdr[17] = 0, 0 // checksum, summed below
	hdr[18], hdr[19] = 0, 0 // urgent pointer
	clear(hdr[tcpHeaderLen+copy(hdr[tcpHeaderLen:], t.Options):])
	sum := sum16(pseudoHeaderSum(t.Src, t.Dst, uint8(IPProtocolTCP), segLen), hdr) + paySum
	binary.BigEndian.PutUint16(hdr[16:18], foldChecksum(sum))
	return nil
}
