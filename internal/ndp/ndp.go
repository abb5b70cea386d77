// Package ndp implements the Neighbor Discovery Protocol messages the
// study's feature analysis keys on (RFC 4861): Router Solicitation and
// Advertisement, Neighbor Solicitation and Advertisement, and the options
// that carry SLAAC prefixes (RFC 4862), RDNSS servers (RFC 8106), and
// link-layer addresses. Messages encode to and decode from the body of a
// packet.ICMPv6 layer.
package ndp

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"time"

	"v6lab/internal/packet"
)

// Option type codes (RFC 4861 §4.6, RFC 8106).
const (
	OptSourceLinkAddr uint8 = 1
	OptTargetLinkAddr uint8 = 2
	OptPrefixInfo     uint8 = 3
	OptMTU            uint8 = 5
	OptRDNSS          uint8 = 25
	OptDNSSL          uint8 = 31
)

// PrefixInfo is the Prefix Information option carried by Router
// Advertisements: the SLAAC trigger.
type PrefixInfo struct {
	Prefix            netip.Prefix
	OnLink            bool
	AutonomousFlag    bool // the A flag: address autoconfiguration allowed
	ValidLifetime     time.Duration
	PreferredLifetime time.Duration
}

// RDNSS is the Recursive DNS Server option (RFC 8106).
type RDNSS struct {
	Lifetime time.Duration
	Servers  []netip.Addr
}

// RouterAdvert is an RA message (type 134).
type RouterAdvert struct {
	HopLimit       uint8
	Managed        bool // M flag: addresses via stateful DHCPv6
	OtherConfig    bool // O flag: other configuration via DHCPv6
	RouterLifetime time.Duration
	Prefixes       []PrefixInfo
	RDNSS          []RDNSS
	MTU            uint32
	SourceLinkAddr packet.MAC
}

// RouterSolicit is an RS message (type 133).
type RouterSolicit struct {
	SourceLinkAddr packet.MAC // zero when omitted (e.g. unspecified source)
}

// NeighborSolicit is an NS message (type 135); with an unspecified IPv6
// source it is a DAD probe.
type NeighborSolicit struct {
	Target         netip.Addr
	SourceLinkAddr packet.MAC
}

// NeighborAdvert is an NA message (type 136).
type NeighborAdvert struct {
	Router         bool
	Solicited      bool
	Override       bool
	Target         netip.Addr
	TargetLinkAddr packet.MAC
}

func appendLinkAddrOpt(b []byte, typ uint8, mac packet.MAC) []byte {
	return append(b, typ, 1, mac[0], mac[1], mac[2], mac[3], mac[4], mac[5])
}

func lifetimeSeconds(d time.Duration) uint32 {
	s := int64(d / time.Second)
	if s < 0 {
		return 0
	}
	if s > 0xffffffff {
		return 0xffffffff
	}
	return uint32(s)
}

// AppendBody appends the RA's ICMPv6 body to b and returns the extended
// slice. Options are built in fixed-size arrays, so encoding into a
// buffer with room allocates nothing.
func (ra *RouterAdvert) AppendBody(b []byte) []byte {
	var flags uint8
	if ra.Managed {
		flags |= 0x80
	}
	if ra.OtherConfig {
		flags |= 0x40
	}
	b = append(b, ra.HopLimit, flags)
	b = binary.BigEndian.AppendUint16(b, uint16(lifetimeSeconds(ra.RouterLifetime)))
	// Reachable time and retrans timer left unspecified (0).
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0)
	if !ra.SourceLinkAddr.IsZero() {
		b = appendLinkAddrOpt(b, OptSourceLinkAddr, ra.SourceLinkAddr)
	}
	if ra.MTU != 0 {
		b = append(b, OptMTU, 1, 0, 0)
		b = binary.BigEndian.AppendUint32(b, ra.MTU)
	}
	for _, p := range ra.Prefixes {
		var opt [32]byte
		opt[0], opt[1] = OptPrefixInfo, 4
		opt[2] = uint8(p.Prefix.Bits())
		if p.OnLink {
			opt[3] |= 0x80
		}
		if p.AutonomousFlag {
			opt[3] |= 0x40
		}
		binary.BigEndian.PutUint32(opt[4:8], lifetimeSeconds(p.ValidLifetime))
		binary.BigEndian.PutUint32(opt[8:12], lifetimeSeconds(p.PreferredLifetime))
		a := p.Prefix.Addr().As16()
		copy(opt[16:32], a[:])
		b = append(b, opt[:]...)
	}
	for _, r := range ra.RDNSS {
		b = append(b, OptRDNSS, uint8(1+2*len(r.Servers)), 0, 0)
		b = binary.BigEndian.AppendUint32(b, lifetimeSeconds(r.Lifetime))
		for _, s := range r.Servers {
			a := s.As16()
			b = append(b, a[:]...)
		}
	}
	return b
}

// nextOption splits the first TLV option (type, length, body) off an
// options region. A returned option is at least 8 bytes long.
func nextOption(b []byte) (opt, rest []byte, err error) {
	if len(b) < 2 {
		return nil, nil, packet.ErrTruncated
	}
	olen := int(b[1]) * 8
	if olen == 0 || olen > len(b) {
		return nil, nil, fmt.Errorf("ndp: option type %d length %d invalid", b[0], b[1])
	}
	return b[:olen], b[olen:], nil
}

// linkAddrOption returns the address carried by the last option of type
// typ in an options region, or the zero MAC when there is none.
func linkAddrOption(b []byte, typ uint8) (packet.MAC, error) {
	var mac packet.MAC
	for len(b) > 0 {
		opt, rest, err := nextOption(b)
		if err != nil {
			return packet.MAC{}, err
		}
		if opt[0] == typ {
			copy(mac[:], opt[2:8])
		}
		b = rest
	}
	return mac, nil
}

// ParseRouterAdvertInto decodes an RA from an ICMPv6 body into ra,
// reusing the backing arrays of its Prefixes and RDNSS slices (and of
// each RDNSS entry's Servers), so a receiver that keeps one RouterAdvert
// stops allocating once it has held its largest advert. On error ra's
// contents are unspecified.
func ParseRouterAdvertInto(ra *RouterAdvert, body []byte) error {
	if len(body) < 12 {
		return packet.ErrTruncated
	}
	prefixes, rdnss := ra.Prefixes[:0], ra.RDNSS[:0]
	*ra = RouterAdvert{
		HopLimit:       body[0],
		Managed:        body[1]&0x80 != 0,
		OtherConfig:    body[1]&0x40 != 0,
		RouterLifetime: time.Duration(binary.BigEndian.Uint16(body[2:4])) * time.Second,
	}
	for b := body[12:]; len(b) > 0; {
		opt, rest, err := nextOption(b)
		if err != nil {
			return err
		}
		b = rest
		switch opt[0] {
		case OptSourceLinkAddr:
			copy(ra.SourceLinkAddr[:], opt[2:8])
		case OptMTU:
			ra.MTU = binary.BigEndian.Uint32(opt[4:8])
		case OptPrefixInfo:
			if len(opt) < 32 {
				return packet.ErrTruncated
			}
			bits := int(opt[2])
			if bits > 128 {
				return fmt.Errorf("ndp: prefix length %d", bits)
			}
			prefixes = append(prefixes, PrefixInfo{
				Prefix:            netip.PrefixFrom(netip.AddrFrom16([16]byte(opt[16:32])), bits),
				OnLink:            opt[3]&0x80 != 0,
				AutonomousFlag:    opt[3]&0x40 != 0,
				ValidLifetime:     time.Duration(binary.BigEndian.Uint32(opt[4:8])) * time.Second,
				PreferredLifetime: time.Duration(binary.BigEndian.Uint32(opt[8:12])) * time.Second,
			})
		case OptRDNSS:
			if len(opt) < 8 || (len(opt)-8)%16 != 0 {
				return packet.ErrTruncated
			}
			var servers []netip.Addr
			if len(rdnss) < cap(rdnss) {
				servers = rdnss[:len(rdnss)+1][len(rdnss)].Servers[:0]
			}
			for p := 8; p < len(opt); p += 16 {
				servers = append(servers, netip.AddrFrom16([16]byte(opt[p:p+16])))
			}
			rdnss = append(rdnss, RDNSS{
				Lifetime: time.Duration(binary.BigEndian.Uint32(opt[4:8])) * time.Second,
				Servers:  servers,
			})
		}
	}
	ra.Prefixes, ra.RDNSS = prefixes, rdnss
	return nil
}

// AppendBody appends the RS's ICMPv6 body to b.
func (rs RouterSolicit) AppendBody(b []byte) []byte {
	b = append(b, 0, 0, 0, 0)
	if !rs.SourceLinkAddr.IsZero() {
		b = appendLinkAddrOpt(b, OptSourceLinkAddr, rs.SourceLinkAddr)
	}
	return b
}

// ParseRouterSolicit decodes an RS from an ICMPv6 body.
func ParseRouterSolicit(body []byte) (RouterSolicit, error) {
	if len(body) < 4 {
		return RouterSolicit{}, packet.ErrTruncated
	}
	mac, err := linkAddrOption(body[4:], OptSourceLinkAddr)
	if err != nil {
		return RouterSolicit{}, err
	}
	return RouterSolicit{SourceLinkAddr: mac}, nil
}

// AppendBody appends the NS's ICMPv6 body to b.
func (ns NeighborSolicit) AppendBody(b []byte) []byte {
	a := ns.Target.As16()
	b = append(b, 0, 0, 0, 0)
	b = append(b, a[:]...)
	if !ns.SourceLinkAddr.IsZero() {
		b = appendLinkAddrOpt(b, OptSourceLinkAddr, ns.SourceLinkAddr)
	}
	return b
}

// ParseNeighborSolicit decodes an NS from an ICMPv6 body.
func ParseNeighborSolicit(body []byte) (NeighborSolicit, error) {
	if len(body) < 20 {
		return NeighborSolicit{}, packet.ErrTruncated
	}
	mac, err := linkAddrOption(body[20:], OptSourceLinkAddr)
	if err != nil {
		return NeighborSolicit{}, err
	}
	return NeighborSolicit{Target: netip.AddrFrom16([16]byte(body[4:20])), SourceLinkAddr: mac}, nil
}

// AppendBody appends the NA's ICMPv6 body to b.
func (na NeighborAdvert) AppendBody(b []byte) []byte {
	var flags uint8
	if na.Router {
		flags |= 0x80
	}
	if na.Solicited {
		flags |= 0x40
	}
	if na.Override {
		flags |= 0x20
	}
	a := na.Target.As16()
	b = append(b, flags, 0, 0, 0)
	b = append(b, a[:]...)
	if !na.TargetLinkAddr.IsZero() {
		b = appendLinkAddrOpt(b, OptTargetLinkAddr, na.TargetLinkAddr)
	}
	return b
}

// ParseNeighborAdvert decodes an NA from an ICMPv6 body.
func ParseNeighborAdvert(body []byte) (NeighborAdvert, error) {
	if len(body) < 20 {
		return NeighborAdvert{}, packet.ErrTruncated
	}
	mac, err := linkAddrOption(body[20:], OptTargetLinkAddr)
	if err != nil {
		return NeighborAdvert{}, err
	}
	return NeighborAdvert{
		Router:         body[0]&0x80 != 0,
		Solicited:      body[0]&0x40 != 0,
		Override:       body[0]&0x20 != 0,
		Target:         netip.AddrFrom16([16]byte(body[4:20])),
		TargetLinkAddr: mac,
	}, nil
}

// IsNDPType reports whether an ICMPv6 type is one of the four ND messages,
// the predicate behind the paper's "generates NDP traffic" feature (row 2
// of Table 3).
func IsNDPType(t uint8) bool {
	return t >= packet.ICMPv6TypeRouterSolicit && t <= packet.ICMPv6TypeNeighborAdvert
}
