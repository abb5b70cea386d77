// Package addr implements the IPv6 address taxonomy the study's analysis
// depends on: classification into global unicast (GUA), unique local (ULA),
// link-local (LLA), and multicast; derivation and detection of EUI-64
// interface identifiers (the privacy risk at the center of RQ4); and
// generation of RFC 8981-style randomized interface identifiers.
package addr

import (
	"fmt"
	"math/rand"
	"net/netip"

	"v6lab/internal/packet"
)

// Kind classifies an IPv6 address.
type Kind int

// The address kinds the study distinguishes (Table 5).
const (
	KindInvalid Kind = iota
	KindUnspecified
	KindLoopback
	KindLLA // link-local unicast, fe80::/10
	KindULA // unique local, fc00::/7
	KindGUA // global unicast
	KindMulticast
)

// String names the kind as the paper's tables do.
func (k Kind) String() string {
	switch k {
	case KindUnspecified:
		return "unspecified"
	case KindLoopback:
		return "loopback"
	case KindLLA:
		return "LLA"
	case KindULA:
		return "ULA"
	case KindGUA:
		return "GUA"
	case KindMulticast:
		return "multicast"
	}
	return "invalid"
}

// Classify returns the Kind of an IPv6 address. IPv4 and 4-in-6 addresses
// classify as KindInvalid: the study treats them through the IPv4 pipeline.
func Classify(a netip.Addr) Kind {
	if !a.IsValid() || !a.Is6() || a.Is4In6() {
		return KindInvalid
	}
	switch {
	case a == netip.IPv6Unspecified():
		return KindUnspecified
	case a == netip.IPv6Loopback():
		return KindLoopback
	case a.IsMulticast():
		return KindMulticast
	case a.IsLinkLocalUnicast():
		return KindLLA
	case a.As16()[0]&0xfe == 0xfc:
		return KindULA
	default:
		return KindGUA
	}
}

// InterfaceID returns the low 64 bits of the address.
func InterfaceID(a netip.Addr) [8]byte {
	b := a.As16()
	return [8]byte(b[8:16])
}

// EUI64FromMAC expands a 48-bit MAC into the modified EUI-64 interface
// identifier (RFC 4291 appendix A): the ff:fe pattern is inserted in the
// middle and the universal/local bit is inverted.
func EUI64FromMAC(mac packet.MAC) [8]byte {
	return [8]byte{mac[0] ^ 0x02, mac[1], mac[2], 0xff, 0xfe, mac[3], mac[4], mac[5]}
}

// MACFromEUI64 reverses EUI64FromMAC, reporting ok=false when the
// identifier does not carry the ff:fe signature.
func MACFromEUI64(iid [8]byte) (packet.MAC, bool) {
	if iid[3] != 0xff || iid[4] != 0xfe {
		return packet.MAC{}, false
	}
	return packet.MAC{iid[0] ^ 0x02, iid[1], iid[2], iid[5], iid[6], iid[7]}, true
}

// IsEUI64 reports whether the address's interface identifier follows the
// modified EUI-64 format (the ff:fe signature), the study's tracker-visible
// fingerprint.
func IsEUI64(a netip.Addr) bool {
	if !a.Is6() || a.Is4In6() {
		return false
	}
	iid := InterfaceID(a)
	return iid[3] == 0xff && iid[4] == 0xfe
}

// EUI64MatchesMAC reports whether the address embeds exactly this MAC, the
// check the analysis pipeline uses to tie an exposed address to a device.
func EUI64MatchesMAC(a netip.Addr, mac packet.MAC) bool {
	got, ok := MACFromEUI64(InterfaceID(a))
	return ok && got == mac
}

// IIDClass buckets interface identifiers by hitlist predictability: the
// attacker's view of the address space (the "Unconsidered Installations"
// taxonomy). EUI-64 identifiers expand from small vendor MAC blocks,
// low-byte identifiers from a counting sweep; random identifiers are
// 2^64-sparse and only discoverable through leaks.
type IIDClass int

// The identifier classes a v6 hitlist generator distinguishes.
const (
	// IIDRandom is an RFC 8981 / RFC 7217-style identifier: no structure
	// a generator can exploit.
	IIDRandom IIDClass = iota
	// IIDEUI64 carries the ff:fe signature, so the identifier space
	// collapses to the 48-bit MAC space — and in practice to the few
	// dense OUI blocks IoT vendors ship.
	IIDEUI64
	// IIDLowByte is a structured value in the low 24 bits (router
	// addresses, sequential DHCPv6 leases in small conventional pools):
	// found by sweeping prefix::1..prefix::N and the pool offsets.
	IIDLowByte
)

// String names the class as the discovery reports do.
func (c IIDClass) String() string {
	switch c {
	case IIDEUI64:
		return "eui64"
	case IIDLowByte:
		return "low-byte"
	}
	return "random"
}

// ClassifyIID buckets an interface identifier. EUI-64 wins over low-byte:
// an identifier with the ff:fe signature expands from MAC space even when
// its OUI bytes are zero.
func ClassifyIID(iid [8]byte) IIDClass {
	if iid[3] == 0xff && iid[4] == 0xfe {
		return IIDEUI64
	}
	if iid[0] == 0 && iid[1] == 0 && iid[2] == 0 && iid[3] == 0 && iid[4] == 0 {
		return IIDLowByte
	}
	return IIDRandom
}

// LowByteIID builds the n-th identifier of the pool at the given base
// byte: base 0 is the classic prefix::n sweep; nonzero bases cover the
// conventional CPE DHCPv6 pool offsets (prefix::base:n).
func LowByteIID(base byte, n uint16) [8]byte {
	return [8]byte{0, 0, 0, 0, 0, base, byte(n >> 8), byte(n)}
}

// FromPrefixIID composes an address from a /64 prefix and an interface
// identifier.
func FromPrefixIID(prefix netip.Prefix, iid [8]byte) netip.Addr {
	if prefix.Bits() > 64 {
		panic(fmt.Sprintf("addr: prefix %v longer than /64", prefix))
	}
	b := prefix.Addr().As16()
	copy(b[8:], iid[:])
	return netip.AddrFrom16(b)
}

// EUI64Addr composes an EUI-64 SLAAC address from a prefix and MAC.
func EUI64Addr(prefix netip.Prefix, mac packet.MAC) netip.Addr {
	return FromPrefixIID(prefix, EUI64FromMAC(mac))
}

// RandomIID draws an RFC 8981-style randomized interface identifier from
// rng. The universal/local bit is cleared and the ff:fe signature is
// avoided so the identifier can never be mistaken for EUI-64.
func RandomIID(rng *rand.Rand) [8]byte {
	var iid [8]byte
	for {
		for i := range iid {
			iid[i] = byte(rng.Intn(256))
		}
		iid[0] &^= 0x02 // local-scope bit clear per RFC 8981 §3.4
		if iid[3] == 0xff && iid[4] == 0xfe {
			continue
		}
		var zero [8]byte
		if iid == zero {
			continue
		}
		return iid
	}
}

// PrivacyAddr composes a temporary privacy address from a prefix using rng.
func PrivacyAddr(prefix netip.Prefix, rng *rand.Rand) netip.Addr {
	return FromPrefixIID(prefix, RandomIID(rng))
}

// LinkLocalPrefix is fe80::/64.
var LinkLocalPrefix = netip.MustParsePrefix("fe80::/64")

// LinkLocalEUI64 returns the fe80:: EUI-64 address for mac.
func LinkLocalEUI64(mac packet.MAC) netip.Addr {
	return EUI64Addr(LinkLocalPrefix, mac)
}

// SolicitedNodeMulticast maps an address to its solicited-node multicast
// group ff02::1:ffXX:XXXX (RFC 4291 §2.7.1), the DAD/NS destination.
func SolicitedNodeMulticast(a netip.Addr) netip.Addr {
	b := a.As16()
	return netip.AddrFrom16([16]byte{
		0xff, 0x02, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0xff, b[13], b[14], b[15],
	})
}

// Well-known multicast groups and their Ethernet mappings, and the IPv4
// limited-broadcast address DHCPv4 clients send to.
var (
	AllNodesMulticast   = netip.MustParseAddr("ff02::1")
	AllRoutersMulticast = netip.MustParseAddr("ff02::2")
	IPv4Broadcast       = netip.AddrFrom4([4]byte{255, 255, 255, 255})
)

// MulticastMAC maps an IPv6 multicast address to its 33:33 Ethernet
// group address (RFC 2464 §7).
func MulticastMAC(a netip.Addr) packet.MAC {
	b := a.As16()
	return packet.MAC{0x33, 0x33, b[12], b[13], b[14], b[15]}
}

// EtherDstFor picks the Ethernet destination for an IPv6 destination:
// multicast addresses map through MulticastMAC; unicast requires neighbor
// resolution, so the caller supplies the resolved MAC.
func EtherDstFor(dst netip.Addr, resolved packet.MAC) packet.MAC {
	if dst.IsMulticast() {
		return MulticastMAC(dst)
	}
	return resolved
}
