package packet

import (
	"encoding/binary"
	"math/bits"
	"net/netip"
)

// sum16 accumulates data into the running one's-complement sum. The sum
// does not depend on byte order (RFC 1071 §2(B)), so the kernel adds
// native little-endian 64-bit words, four per step with the carries
// chained through bits.Add64, folds to 16 bits once and byte-swaps back to
// network order before adding the caller's sum. The result is folded below
// 16 bits so callers can keep chaining 16-bit quantities into a uint32
// without overflow. An odd trailing byte is padded with a zero low byte,
// as RFC 1071 specifies.
func sum16(sum uint32, data []byte) uint32 {
	var s, c uint64
	for len(data) >= 32 {
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(data), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(data[8:]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(data[16:]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(data[24:]), c)
		data = data[32:]
	}
	for len(data) >= 8 {
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(data), c)
		data = data[8:]
	}
	var tail uint64
	if len(data) >= 4 {
		tail = uint64(binary.LittleEndian.Uint32(data))
		data = data[4:]
	}
	if len(data) >= 2 {
		tail += uint64(binary.LittleEndian.Uint16(data))
		data = data[2:]
	}
	if len(data) == 1 {
		tail += uint64(data[0])
	}
	// tail < 2^33, so a carry out of this add leaves s small enough to
	// take the carry back in without overflowing again.
	s, c = bits.Add64(s, tail, c)
	s += c
	for s>>16 != 0 {
		s = s&0xffff + s>>16
	}
	s = uint64(sum) + uint64(bits.ReverseBytes16(uint16(s)))
	for s>>16 != 0 {
		s = s&0xffff + s>>16
	}
	return uint32(s)
}

// foldChecksum folds a 32-bit accumulator into the final 16-bit Internet
// checksum.
func foldChecksum(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// Checksum computes the RFC 1071 Internet checksum over data.
func Checksum(data []byte) uint16 { return foldChecksum(sum16(0, data)) }

// AdjustChecksum returns the Internet checksum hc updated for covered
// bytes that changed from old to cur, without summing the unchanged bytes
// again: RFC 1624 eqn. 3, HC' = ~(~HC + ~m + m'). old and cur must have the
// same even length and start at an even offset of the checksummed data.
func AdjustChecksum(hc uint16, old, cur []byte) uint16 {
	return foldChecksum(uint32(^hc) + uint32(Checksum(old)) + sum16(0, cur))
}

// pseudoHeaderSum returns the partial checksum of the IPv4 or IPv6
// pseudo-header used by UDP, TCP, and ICMPv6.
func pseudoHeaderSum(src, dst netip.Addr, proto uint8, length int) uint32 {
	var sum uint32
	if src.Is4() && dst.Is4() {
		s, d := src.As4(), dst.As4()
		sum = sum16(sum, s[:])
		sum = sum16(sum, d[:])
		sum += uint32(proto)
		sum += uint32(length)
		return sum
	}
	s, d := src.As16(), dst.As16()
	sum = sum16(sum, s[:])
	sum = sum16(sum, d[:])
	sum += uint32(length >> 16)
	sum += uint32(length & 0xffff)
	sum += uint32(proto)
	return sum
}

// TransportChecksum computes the checksum of a UDP, TCP, or ICMPv6 segment
// (header+payload, with its checksum field zeroed) between src and dst.
func TransportChecksum(src, dst netip.Addr, proto uint8, segment []byte) uint16 {
	return foldChecksum(sum16(pseudoHeaderSum(src, dst, proto, len(segment)), segment))
}
