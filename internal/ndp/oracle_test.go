package ndp

// The codec as it was before the ND messages learned to decode into
// values and reused structs and to encode by appending to the caller's
// buffer: per-option slices on the way out, a callback option walk and
// freshly allocated messages on the way in. It stays as a test-only
// oracle so the differential fuzz target (FuzzNDP) can hold the rewritten
// codec to the original's decisions and bytes.

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"time"

	"v6lab/internal/packet"
)

func oracleLinkAddrOpt(b []byte, typ uint8, mac packet.MAC) []byte {
	return append(b, typ, 1, mac[0], mac[1], mac[2], mac[3], mac[4], mac[5])
}

// oracleRABody encodes the RA into an ICMPv6 body.
func oracleRABody(ra *RouterAdvert) []byte {
	b := make([]byte, 12, 64)
	b[0] = ra.HopLimit
	if ra.Managed {
		b[1] |= 0x80
	}
	if ra.OtherConfig {
		b[1] |= 0x40
	}
	binary.BigEndian.PutUint16(b[2:4], uint16(lifetimeSeconds(ra.RouterLifetime)))
	// Reachable time and retrans timer left unspecified (0).
	if !ra.SourceLinkAddr.IsZero() {
		b = oracleLinkAddrOpt(b, OptSourceLinkAddr, ra.SourceLinkAddr)
	}
	if ra.MTU != 0 {
		opt := make([]byte, 8)
		opt[0], opt[1] = OptMTU, 1
		binary.BigEndian.PutUint32(opt[4:8], ra.MTU)
		b = append(b, opt...)
	}
	for _, p := range ra.Prefixes {
		opt := make([]byte, 32)
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
		b = append(b, opt...)
	}
	for _, r := range ra.RDNSS {
		opt := make([]byte, 8+16*len(r.Servers))
		opt[0] = OptRDNSS
		opt[1] = uint8(1 + 2*len(r.Servers))
		binary.BigEndian.PutUint32(opt[4:8], lifetimeSeconds(r.Lifetime))
		for i, s := range r.Servers {
			a := s.As16()
			copy(opt[8+16*i:], a[:])
		}
		b = append(b, opt...)
	}
	return b
}

// oracleParseOptions walks the TLV options region, invoking fn per option with
// the full option bytes (type, len, body).
func oracleParseOptions(b []byte, fn func(typ uint8, opt []byte) error) error {
	for len(b) > 0 {
		if len(b) < 2 {
			return packet.ErrTruncated
		}
		olen := int(b[1]) * 8
		if olen == 0 || olen > len(b) {
			return fmt.Errorf("ndp: option type %d length %d invalid", b[0], b[1])
		}
		if err := fn(b[0], b[:olen]); err != nil {
			return err
		}
		b = b[olen:]
	}
	return nil
}

// oracleParseRA decodes an RA from an ICMPv6 body.
func oracleParseRA(body []byte) (*RouterAdvert, error) {
	if len(body) < 12 {
		return nil, packet.ErrTruncated
	}
	ra := &RouterAdvert{
		HopLimit:       body[0],
		Managed:        body[1]&0x80 != 0,
		OtherConfig:    body[1]&0x40 != 0,
		RouterLifetime: time.Duration(binary.BigEndian.Uint16(body[2:4])) * time.Second,
	}
	err := oracleParseOptions(body[12:], func(typ uint8, opt []byte) error {
		switch typ {
		case OptSourceLinkAddr:
			if len(opt) >= 8 {
				copy(ra.SourceLinkAddr[:], opt[2:8])
			}
		case OptMTU:
			if len(opt) >= 8 {
				ra.MTU = binary.BigEndian.Uint32(opt[4:8])
			}
		case OptPrefixInfo:
			if len(opt) < 32 {
				return packet.ErrTruncated
			}
			a := netip.AddrFrom16([16]byte(opt[16:32]))
			bits := int(opt[2])
			if bits > 128 {
				return fmt.Errorf("ndp: prefix length %d", bits)
			}
			ra.Prefixes = append(ra.Prefixes, PrefixInfo{
				Prefix:            netip.PrefixFrom(a, bits),
				OnLink:            opt[3]&0x80 != 0,
				AutonomousFlag:    opt[3]&0x40 != 0,
				ValidLifetime:     time.Duration(binary.BigEndian.Uint32(opt[4:8])) * time.Second,
				PreferredLifetime: time.Duration(binary.BigEndian.Uint32(opt[8:12])) * time.Second,
			})
		case OptRDNSS:
			if len(opt) < 8 || (len(opt)-8)%16 != 0 {
				return packet.ErrTruncated
			}
			r := RDNSS{Lifetime: time.Duration(binary.BigEndian.Uint32(opt[4:8])) * time.Second}
			for p := 8; p < len(opt); p += 16 {
				r.Servers = append(r.Servers, netip.AddrFrom16([16]byte(opt[p:p+16])))
			}
			ra.RDNSS = append(ra.RDNSS, r)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ra, nil
}

// oracleRSBody encodes the RS into an ICMPv6 body.
func oracleRSBody(rs *RouterSolicit) []byte {
	b := make([]byte, 4)
	if !rs.SourceLinkAddr.IsZero() {
		b = oracleLinkAddrOpt(b, OptSourceLinkAddr, rs.SourceLinkAddr)
	}
	return b
}

// oracleParseRS decodes an RS from an ICMPv6 body.
func oracleParseRS(body []byte) (*RouterSolicit, error) {
	if len(body) < 4 {
		return nil, packet.ErrTruncated
	}
	rs := &RouterSolicit{}
	err := oracleParseOptions(body[4:], func(typ uint8, opt []byte) error {
		if typ == OptSourceLinkAddr && len(opt) >= 8 {
			copy(rs.SourceLinkAddr[:], opt[2:8])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rs, nil
}

// oracleNSBody encodes the NS into an ICMPv6 body.
func oracleNSBody(ns *NeighborSolicit) []byte {
	b := make([]byte, 20)
	a := ns.Target.As16()
	copy(b[4:20], a[:])
	if !ns.SourceLinkAddr.IsZero() {
		b = oracleLinkAddrOpt(b, OptSourceLinkAddr, ns.SourceLinkAddr)
	}
	return b
}

// oracleParseNS decodes an NS from an ICMPv6 body.
func oracleParseNS(body []byte) (*NeighborSolicit, error) {
	if len(body) < 20 {
		return nil, packet.ErrTruncated
	}
	ns := &NeighborSolicit{Target: netip.AddrFrom16([16]byte(body[4:20]))}
	err := oracleParseOptions(body[20:], func(typ uint8, opt []byte) error {
		if typ == OptSourceLinkAddr && len(opt) >= 8 {
			copy(ns.SourceLinkAddr[:], opt[2:8])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ns, nil
}

// oracleNABody encodes the NA into an ICMPv6 body.
func oracleNABody(na *NeighborAdvert) []byte {
	b := make([]byte, 20)
	if na.Router {
		b[0] |= 0x80
	}
	if na.Solicited {
		b[0] |= 0x40
	}
	if na.Override {
		b[0] |= 0x20
	}
	a := na.Target.As16()
	copy(b[4:20], a[:])
	if !na.TargetLinkAddr.IsZero() {
		b = oracleLinkAddrOpt(b, OptTargetLinkAddr, na.TargetLinkAddr)
	}
	return b
}

// oracleParseNA decodes an NA from an ICMPv6 body.
func oracleParseNA(body []byte) (*NeighborAdvert, error) {
	if len(body) < 20 {
		return nil, packet.ErrTruncated
	}
	na := &NeighborAdvert{
		Router:    body[0]&0x80 != 0,
		Solicited: body[0]&0x40 != 0,
		Override:  body[0]&0x20 != 0,
		Target:    netip.AddrFrom16([16]byte(body[4:20])),
	}
	err := oracleParseOptions(body[20:], func(typ uint8, opt []byte) error {
		if typ == OptTargetLinkAddr && len(opt) >= 8 {
			copy(na.TargetLinkAddr[:], opt[2:8])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return na, nil
}
