package dnsmsg

// The codec as it was before Pack and Unpack learned to reuse caller
// buffers: split-and-join name encoding with a map of suffix offsets, and
// a strings.Builder name decoder. It stays as a test-only oracle so the
// differential fuzz target (FuzzDNSMessage) can hold the rewritten codec
// to the original's output byte for byte.

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"strings"
)

// oracleAppendNameCompressed encodes a domain name, emitting a compression
// pointer for any suffix already present in the message (tracked in
// offsets). Only owner names use compression; rdata names stay literal,
// which keeps types whose rdata must not be compressed (SRV, SVCB) safe.
func oracleAppendNameCompressed(b []byte, name string, offsets map[string]int) ([]byte, error) {
	name = strings.TrimSuffix(name, ".")
	if name == "" {
		return append(b, 0), nil
	}
	labels := strings.Split(name, ".")
	for i := range labels {
		suffix := strings.Join(labels[i:], ".")
		if off, ok := offsets[suffix]; ok && off < 0x4000 {
			return append(b, 0xc0|byte(off>>8), byte(off)), nil
		}
		if len(b) < 0x4000 {
			offsets[suffix] = len(b)
		}
		label := labels[i]
		if len(label) == 0 || len(label) > 63 {
			return nil, fmt.Errorf("%w: label %q", ErrBadName, label)
		}
		b = append(b, byte(len(label)))
		b = append(b, label...)
	}
	return append(b, 0), nil
}

// oracleAppendName encodes a domain name without compression.
func oracleAppendName(b []byte, name string) ([]byte, error) {
	name = strings.TrimSuffix(name, ".")
	if name != "" {
		for _, label := range strings.Split(name, ".") {
			if len(label) == 0 || len(label) > 63 {
				return nil, fmt.Errorf("%w: label %q", ErrBadName, label)
			}
			b = append(b, byte(len(label)))
			b = append(b, label...)
		}
	}
	return append(b, 0), nil
}

// oracleParseName decodes a possibly compressed name starting at off, returning
// the name and the offset just past its in-place encoding.
func oracleParseName(msg []byte, off int) (string, int, error) {
	var sb strings.Builder
	jumped := false
	next := 0
	for hops := 0; ; hops++ {
		if hops > 127 {
			return "", 0, fmt.Errorf("%w: pointer loop", ErrBadName)
		}
		if off >= len(msg) {
			return "", 0, ErrTruncatedMsg
		}
		l := int(msg[off])
		switch {
		case l == 0:
			if !jumped {
				next = off + 1
			}
			name := sb.String()
			if name == "" {
				name = "."
			}
			return name, next, nil
		case l&0xc0 == 0xc0:
			if off+1 >= len(msg) {
				return "", 0, ErrTruncatedMsg
			}
			ptr := (l&0x3f)<<8 | int(msg[off+1])
			if !jumped {
				next = off + 2
				jumped = true
			}
			if ptr >= off {
				return "", 0, fmt.Errorf("%w: forward pointer", ErrBadName)
			}
			off = ptr
		case l&0xc0 != 0:
			return "", 0, fmt.Errorf("%w: reserved label type", ErrBadName)
		default:
			if off+1+l > len(msg) {
				return "", 0, ErrTruncatedMsg
			}
			if sb.Len() > 0 {
				sb.WriteByte('.')
			}
			sb.Write(msg[off+1 : off+1+l])
			off += 1 + l
		}
	}
}

// oraclePack is the original Pack.
func oraclePack(m *Message) ([]byte, error) {
	b := make([]byte, 12, 128)
	binary.BigEndian.PutUint16(b[0:2], m.ID)
	var flags uint16
	if m.Response {
		flags |= 1 << 15
	}
	if m.Authoritative {
		flags |= 1 << 10
	}
	if m.RecursionDesired {
		flags |= 1 << 8
	}
	if m.RecursionAvailable {
		flags |= 1 << 7
	}
	flags |= uint16(m.RCode) & 0x0f
	binary.BigEndian.PutUint16(b[2:4], flags)
	binary.BigEndian.PutUint16(b[4:6], uint16(len(m.Questions)))
	binary.BigEndian.PutUint16(b[6:8], uint16(len(m.Answers)))
	binary.BigEndian.PutUint16(b[8:10], uint16(len(m.Authority)))
	binary.BigEndian.PutUint16(b[10:12], uint16(len(m.Additional)))
	var err error
	offsets := map[string]int{}
	for _, q := range m.Questions {
		if b, err = oracleAppendNameCompressed(b, q.Name, offsets); err != nil {
			return nil, err
		}
		b = binary.BigEndian.AppendUint16(b, uint16(q.Type))
		b = binary.BigEndian.AppendUint16(b, ClassIN)
	}
	for _, sec := range [][]Record{m.Answers, m.Authority, m.Additional} {
		for _, rr := range sec {
			if b, err = oracleAppendRecord(b, rr, offsets); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

func oracleAppendRecord(b []byte, rr Record, offsets map[string]int) ([]byte, error) {
	var err error
	if b, err = oracleAppendNameCompressed(b, rr.Name, offsets); err != nil {
		return nil, err
	}
	b = binary.BigEndian.AppendUint16(b, uint16(rr.Type))
	b = binary.BigEndian.AppendUint16(b, ClassIN)
	b = binary.BigEndian.AppendUint32(b, rr.TTL)
	var rdata []byte
	switch rr.Type {
	case TypeA:
		if !rr.Addr.Is4() {
			return nil, fmt.Errorf("dnsmsg: A record for %s needs IPv4, have %v", rr.Name, rr.Addr)
		}
		a4 := rr.Addr.As4()
		rdata = a4[:]
	case TypeAAAA:
		if !rr.Addr.Is6() || rr.Addr.Is4In6() {
			return nil, fmt.Errorf("dnsmsg: AAAA record for %s needs IPv6, have %v", rr.Name, rr.Addr)
		}
		a16 := rr.Addr.As16()
		rdata = a16[:]
	case TypeCNAME, TypePTR:
		if rdata, err = oracleAppendName(nil, rr.Target); err != nil {
			return nil, err
		}
	case TypeSOA:
		// MNAME RNAME SERIAL REFRESH RETRY EXPIRE MINIMUM, with fixed
		// administrative values; only MNAME (Target) is configurable.
		if rdata, err = oracleAppendName(nil, rr.Target); err != nil {
			return nil, err
		}
		if rdata, err = oracleAppendName(rdata, "hostmaster."+strings.TrimSuffix(rr.Target, ".")); err != nil {
			return nil, err
		}
		for _, v := range []uint32{1, 7200, 900, 1209600, 86400} {
			rdata = binary.BigEndian.AppendUint32(rdata, v)
		}
	case TypeTXT:
		for _, s := range rr.Text {
			if len(s) > 255 {
				return nil, fmt.Errorf("dnsmsg: TXT string too long")
			}
			rdata = append(rdata, byte(len(s)))
			rdata = append(rdata, s...)
		}
	case TypeSRV:
		// priority, weight, port, target (RFC 2782).
		rdata = binary.BigEndian.AppendUint16(rdata, rr.Priority)
		rdata = binary.BigEndian.AppendUint16(rdata, 0)
		rdata = binary.BigEndian.AppendUint16(rdata, rr.Port)
		if rdata, err = oracleAppendName(rdata, rr.Target); err != nil {
			return nil, err
		}
	case TypeSVCB, TypeHTTPS:
		rdata = binary.BigEndian.AppendUint16(rdata, rr.Priority)
		if rdata, err = oracleAppendName(rdata, rr.Target); err != nil {
			return nil, err
		}
		if rr.Addr.Is6() && !rr.Addr.Is4In6() {
			// SvcParam ipv6hint (key 6), one address.
			rdata = binary.BigEndian.AppendUint16(rdata, 6)
			rdata = binary.BigEndian.AppendUint16(rdata, 16)
			hint := rr.Addr.As16()
			rdata = append(rdata, hint[:]...)
		}
	default:
		return nil, fmt.Errorf("dnsmsg: cannot pack type %v", rr.Type)
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(rdata)))
	return append(b, rdata...), nil
}

// oracleUnpack is the original Unpack.
func oracleUnpack(data []byte) (*Message, error) {
	if len(data) < 12 {
		return nil, ErrTruncatedMsg
	}
	m := &Message{ID: binary.BigEndian.Uint16(data[0:2])}
	flags := binary.BigEndian.Uint16(data[2:4])
	m.Response = flags&(1<<15) != 0
	m.Authoritative = flags&(1<<10) != 0
	m.RecursionDesired = flags&(1<<8) != 0
	m.RecursionAvailable = flags&(1<<7) != 0
	m.RCode = RCode(flags & 0x0f)
	qd := int(binary.BigEndian.Uint16(data[4:6]))
	an := int(binary.BigEndian.Uint16(data[6:8]))
	ns := int(binary.BigEndian.Uint16(data[8:10]))
	ar := int(binary.BigEndian.Uint16(data[10:12]))
	off := 12
	for i := 0; i < qd; i++ {
		name, next, err := oracleParseName(data, off)
		if err != nil {
			return nil, err
		}
		if next+4 > len(data) {
			return nil, ErrTruncatedMsg
		}
		m.Questions = append(m.Questions, Question{
			Name: name,
			Type: Type(binary.BigEndian.Uint16(data[next : next+2])),
		})
		off = next + 4
	}
	var err error
	for _, sec := range []struct {
		n   int
		dst *[]Record
	}{{an, &m.Answers}, {ns, &m.Authority}, {ar, &m.Additional}} {
		for i := 0; i < sec.n; i++ {
			var rr Record
			if rr, off, err = oracleParseRecord(data, off); err != nil {
				return nil, err
			}
			*sec.dst = append(*sec.dst, rr)
		}
	}
	return m, nil
}

func oracleParseRecord(msg []byte, off int) (Record, int, error) {
	var rr Record
	name, next, err := oracleParseName(msg, off)
	if err != nil {
		return rr, 0, err
	}
	if next+10 > len(msg) {
		return rr, 0, ErrTruncatedMsg
	}
	rr.Name = name
	rr.Type = Type(binary.BigEndian.Uint16(msg[next : next+2]))
	rr.TTL = binary.BigEndian.Uint32(msg[next+4 : next+8])
	rdLen := int(binary.BigEndian.Uint16(msg[next+8 : next+10]))
	rdStart := next + 10
	if rdStart+rdLen > len(msg) {
		return rr, 0, ErrTruncatedMsg
	}
	rdata := msg[rdStart : rdStart+rdLen]
	switch rr.Type {
	case TypeA:
		if rdLen != 4 {
			return rr, 0, fmt.Errorf("dnsmsg: A rdata length %d", rdLen)
		}
		rr.Addr = netip.AddrFrom4([4]byte(rdata))
	case TypeAAAA:
		if rdLen != 16 {
			return rr, 0, fmt.Errorf("dnsmsg: AAAA rdata length %d", rdLen)
		}
		rr.Addr = netip.AddrFrom16([16]byte(rdata))
	case TypeCNAME, TypePTR, TypeSOA:
		if rr.Target, _, err = oracleParseName(msg, rdStart); err != nil {
			return rr, 0, err
		}
	case TypeTXT:
		for p := 0; p < len(rdata); {
			l := int(rdata[p])
			if p+1+l > len(rdata) {
				return rr, 0, ErrTruncatedMsg
			}
			rr.Text = append(rr.Text, string(rdata[p+1:p+1+l]))
			p += 1 + l
		}
	case TypeSRV:
		if rdLen < 7 {
			return rr, 0, ErrTruncatedMsg
		}
		rr.Priority = binary.BigEndian.Uint16(rdata[0:2])
		rr.Port = binary.BigEndian.Uint16(rdata[4:6])
		if rr.Target, _, err = oracleParseName(msg, rdStart+6); err != nil {
			return rr, 0, err
		}
	case TypeSVCB, TypeHTTPS:
		if rdLen < 3 {
			return rr, 0, ErrTruncatedMsg
		}
		rr.Priority = binary.BigEndian.Uint16(rdata[0:2])
		var after int
		if rr.Target, after, err = oracleParseName(msg, rdStart+2); err != nil {
			return rr, 0, err
		}
		// SvcParams: pick out an ipv6hint (key 6) when present.
		params := msg[after : rdStart+rdLen]
		for len(params) >= 4 {
			key := binary.BigEndian.Uint16(params[0:2])
			plen := int(binary.BigEndian.Uint16(params[2:4]))
			if len(params) < 4+plen {
				break
			}
			if key == 6 && plen >= 16 {
				rr.Addr = netip.AddrFrom16([16]byte(params[4:20]))
			}
			params = params[4+plen:]
		}
	}
	return rr, rdStart + rdLen, nil
}
