// Package dnsmsg implements the DNS wire format (RFC 1035) for the record
// types the study observes: A, AAAA (RFC 3596), CNAME, SOA, PTR, TXT, and
// the HTTPS/SVCB types (RFC 9460) that Apple and Android devices query.
// Name compression is honored on decode; encoding is uncompressed.
package dnsmsg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"strings"
)

// Type is a DNS RR type.
type Type uint16

// The RR types the testbed uses.
const (
	TypeA     Type = 1
	TypeCNAME Type = 5
	TypeSOA   Type = 6
	TypePTR   Type = 12
	TypeTXT   Type = 16
	TypeAAAA  Type = 28
	TypeSRV   Type = 33
	TypeSVCB  Type = 64
	TypeHTTPS Type = 65
)

// String names the RR type.
func (t Type) String() string {
	switch t {
	case TypeA:
		return "A"
	case TypeCNAME:
		return "CNAME"
	case TypeSOA:
		return "SOA"
	case TypePTR:
		return "PTR"
	case TypeTXT:
		return "TXT"
	case TypeAAAA:
		return "AAAA"
	case TypeSRV:
		return "SRV"
	case TypeSVCB:
		return "SVCB"
	case TypeHTTPS:
		return "HTTPS"
	}
	return fmt.Sprintf("TYPE%d", uint16(t))
}

// RCode is a DNS response code.
type RCode uint8

// Response codes used by the simulated resolver.
const (
	RCodeSuccess  RCode = 0
	RCodeFormErr  RCode = 1
	RCodeServFail RCode = 2
	RCodeNXDomain RCode = 3
	RCodeRefused  RCode = 5
)

// String names the response code as dig does.
func (r RCode) String() string {
	switch r {
	case RCodeSuccess:
		return "NOERROR"
	case RCodeFormErr:
		return "FORMERR"
	case RCodeServFail:
		return "SERVFAIL"
	case RCodeNXDomain:
		return "NXDOMAIN"
	case RCodeRefused:
		return "REFUSED"
	}
	return fmt.Sprintf("RCODE%d", uint8(r))
}

// ClassIN is the only class the testbed uses.
const ClassIN uint16 = 1

// Question is a DNS question section entry.
type Question struct {
	Name string
	Type Type
}

// Record is a resource record. Exactly one of the typed payload fields is
// meaningful, selected by Type.
type Record struct {
	Name string
	Type Type
	TTL  uint32

	// Addr holds the address for A and AAAA records.
	Addr netip.Addr
	// Target holds the name for CNAME/PTR, the MNAME for SOA, and the
	// TargetName for SVCB/HTTPS.
	Target string
	// Text holds TXT strings.
	Text []string
	// Priority holds the SvcPriority for SVCB/HTTPS and the priority for
	// SRV records.
	Priority uint16
	// Port holds the SRV service port.
	Port uint16
}

// Message is a DNS message.
type Message struct {
	ID                 uint16
	Response           bool
	RecursionDesired   bool
	RecursionAvailable bool
	Authoritative      bool
	RCode              RCode
	Questions          []Question
	Answers            []Record
	Authority          []Record
	Additional         []Record
}

// errors returned by the decoder.
var (
	ErrTruncatedMsg = errors.New("dnsmsg: truncated message")
	ErrBadName      = errors.New("dnsmsg: malformed name")
)

// suffix is one entry of the encoder's compression table: a name suffix
// already written to the message, and its offset from the message start.
type suffix struct {
	name string
	off  int
}

// appendNameCompressed encodes a domain name, emitting a compression
// pointer for any suffix already present in the message. tab lists the
// suffixes written so far, with offsets relative to start; the entries
// are substrings of the names themselves, so the table costs nothing per
// name. It is passed and returned by value, which keeps the caller's
// backing array on its stack. Only owner names use compression; rdata
// names stay literal, which keeps types whose rdata must not be
// compressed (SRV, SVCB) safe.
func appendNameCompressed(b []byte, start int, name string, tab []suffix) ([]byte, []suffix, error) {
	name = strings.TrimSuffix(name, ".")
	if name == "" {
		return append(b, 0), tab, nil
	}
	for rest := name; ; {
		for _, s := range tab {
			if s.name == rest {
				return append(b, 0xc0|byte(s.off>>8), byte(s.off)), tab, nil
			}
		}
		if off := len(b) - start; off < 0x4000 {
			tab = append(tab, suffix{name: rest, off: off})
		}
		label, more, dot := strings.Cut(rest, ".")
		if len(label) == 0 || len(label) > 63 {
			return b, tab, fmt.Errorf("%w: label %q", ErrBadName, label)
		}
		b = append(b, byte(len(label)))
		b = append(b, label...)
		if !dot {
			return append(b, 0), tab, nil
		}
		rest = more
	}
}

// appendName encodes a domain name without compression.
func appendName(b []byte, name string) ([]byte, error) {
	name = strings.TrimSuffix(name, ".")
	for dot := name != ""; dot; {
		var label string
		label, name, dot = strings.Cut(name, ".")
		if len(label) == 0 || len(label) > 63 {
			return b, fmt.Errorf("%w: label %q", ErrBadName, label)
		}
		b = append(b, byte(len(label)))
		b = append(b, label...)
	}
	return append(b, 0), nil
}

// decoder decodes the names of one message. It remembers the last few
// names it produced, so a name repeated across sections (an owner name
// compressed against the question, say) costs one string, not one per
// occurrence.
type decoder struct {
	msg   []byte
	names [4]string
	n     int
}

// name decodes a possibly compressed name starting at off, returning the
// name and the offset just past its in-place encoding. The labels are
// gathered on the stack; the only allocation is the returned string, and
// none when the name repeats a recent one.
func (d *decoder) name(off int) (string, int, error) {
	msg := d.msg
	var arr [256]byte
	buf := arr[:0]
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
			return d.intern(buf), next, nil
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
			if len(buf) > 0 {
				buf = append(buf, '.')
			}
			buf = append(buf, msg[off+1:off+1+l]...)
			off += 1 + l
		}
	}
}

// intern returns the decoded name as a string: "." for the root, a
// recently decoded string when the bytes repeat it, a new one otherwise.
func (d *decoder) intern(b []byte) string {
	if len(b) == 0 {
		return "."
	}
	for _, s := range d.names {
		if s == string(b) {
			return s
		}
	}
	s := string(b)
	d.names[d.n%len(d.names)] = s
	d.n++
	return s
}

// Pack serializes the message into a new buffer.
func (m *Message) Pack() ([]byte, error) {
	b, err := m.AppendPack(make([]byte, 0, 128))
	if err != nil {
		return nil, err
	}
	return b, nil
}

// AppendPack appends the message's wire form to b and returns the
// extended buffer. Compression pointers are relative to the message's
// first byte, so b may carry a prefix (a TCP length, another message).
// On error it returns b truncated back to its original length.
func (m *Message) AppendPack(b []byte) ([]byte, error) {
	start := len(b)
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
	b = binary.BigEndian.AppendUint16(b, m.ID)
	b = binary.BigEndian.AppendUint16(b, flags)
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Questions)))
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Answers)))
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Authority)))
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Additional)))
	var arr [16]suffix
	tab := arr[:0]
	var err error
	for _, q := range m.Questions {
		if b, tab, err = appendNameCompressed(b, start, q.Name, tab); err != nil {
			return b[:start], err
		}
		b = binary.BigEndian.AppendUint16(b, uint16(q.Type))
		b = binary.BigEndian.AppendUint16(b, ClassIN)
	}
	for _, sec := range [...][]Record{m.Answers, m.Authority, m.Additional} {
		for i := range sec {
			if b, tab, err = appendRecord(b, start, &sec[i], tab); err != nil {
				return b[:start], err
			}
		}
	}
	return b, nil
}

// appendRecord appends one resource record. The rdata is written in place
// behind its 2-byte length, which is patched once the rdata is complete.
func appendRecord(b []byte, start int, rr *Record, tab []suffix) ([]byte, []suffix, error) {
	var err error
	if b, tab, err = appendNameCompressed(b, start, rr.Name, tab); err != nil {
		return b, tab, err
	}
	b = binary.BigEndian.AppendUint16(b, uint16(rr.Type))
	b = binary.BigEndian.AppendUint16(b, ClassIN)
	b = binary.BigEndian.AppendUint32(b, rr.TTL)
	lenAt := len(b)
	b = append(b, 0, 0)
	switch rr.Type {
	case TypeA:
		if !rr.Addr.Is4() {
			return b, tab, fmt.Errorf("dnsmsg: A record for %s needs IPv4, have %v", rr.Name, rr.Addr)
		}
		a4 := rr.Addr.As4()
		b = append(b, a4[:]...)
	case TypeAAAA:
		if !rr.Addr.Is6() || rr.Addr.Is4In6() {
			return b, tab, fmt.Errorf("dnsmsg: AAAA record for %s needs IPv6, have %v", rr.Name, rr.Addr)
		}
		a16 := rr.Addr.As16()
		b = append(b, a16[:]...)
	case TypeCNAME, TypePTR:
		b, err = appendName(b, rr.Target)
	case TypeSOA:
		// MNAME RNAME SERIAL REFRESH RETRY EXPIRE MINIMUM, with fixed
		// administrative values; only MNAME (Target) is configurable, and
		// RNAME is hostmaster.MNAME.
		if b, err = appendName(b, rr.Target); err != nil {
			break
		}
		b = append(b, byte(len("hostmaster")))
		b = append(b, "hostmaster"...)
		if b, err = appendName(b, rr.Target); err != nil {
			break
		}
		for _, v := range [...]uint32{1, 7200, 900, 1209600, 86400} {
			b = binary.BigEndian.AppendUint32(b, v)
		}
	case TypeTXT:
		for _, s := range rr.Text {
			if len(s) > 255 {
				return b, tab, fmt.Errorf("dnsmsg: TXT string too long")
			}
			b = append(b, byte(len(s)))
			b = append(b, s...)
		}
	case TypeSRV:
		// priority, weight, port, target (RFC 2782).
		b = binary.BigEndian.AppendUint16(b, rr.Priority)
		b = binary.BigEndian.AppendUint16(b, 0)
		b = binary.BigEndian.AppendUint16(b, rr.Port)
		b, err = appendName(b, rr.Target)
	case TypeSVCB, TypeHTTPS:
		b = binary.BigEndian.AppendUint16(b, rr.Priority)
		if b, err = appendName(b, rr.Target); err != nil {
			break
		}
		if rr.Addr.Is6() && !rr.Addr.Is4In6() {
			// SvcParam ipv6hint (key 6), one address.
			b = binary.BigEndian.AppendUint16(b, 6)
			b = binary.BigEndian.AppendUint16(b, 16)
			hint := rr.Addr.As16()
			b = append(b, hint[:]...)
		}
	default:
		return b, tab, fmt.Errorf("dnsmsg: cannot pack type %v", rr.Type)
	}
	if err != nil {
		return b, tab, err
	}
	binary.BigEndian.PutUint16(b[lenAt:], uint16(len(b)-lenAt-2))
	return b, tab, nil
}

// Unpack parses a wire-format message into a new Message.
func Unpack(data []byte) (*Message, error) {
	m := new(Message)
	if err := UnpackInto(m, data); err != nil {
		return nil, err
	}
	return m, nil
}

// UnpackInto parses a wire-format message into m, overwriting every field
// and reusing the backing arrays of m's sections, so a caller decoding
// message after message into one Message allocates only the decoded names.
// An empty section of a reused m is empty but not nil. On error m's
// contents are unspecified. Decoded strings never alias data.
func UnpackInto(m *Message, data []byte) error {
	if len(data) < 12 {
		return ErrTruncatedMsg
	}
	flags := binary.BigEndian.Uint16(data[2:4])
	*m = Message{
		ID:                 binary.BigEndian.Uint16(data[0:2]),
		Response:           flags&(1<<15) != 0,
		Authoritative:      flags&(1<<10) != 0,
		RecursionDesired:   flags&(1<<8) != 0,
		RecursionAvailable: flags&(1<<7) != 0,
		RCode:              RCode(flags & 0x0f),
		Questions:          m.Questions[:0],
		Answers:            m.Answers[:0],
		Authority:          m.Authority[:0],
		Additional:         m.Additional[:0],
	}
	qd := int(binary.BigEndian.Uint16(data[4:6]))
	an := int(binary.BigEndian.Uint16(data[6:8]))
	ns := int(binary.BigEndian.Uint16(data[8:10]))
	ar := int(binary.BigEndian.Uint16(data[10:12]))
	d := decoder{msg: data}
	off := 12
	for i := 0; i < qd; i++ {
		name, next, err := d.name(off)
		if err != nil {
			return err
		}
		if next+4 > len(data) {
			return ErrTruncatedMsg
		}
		m.Questions = append(m.Questions, Question{
			Name: name,
			Type: Type(binary.BigEndian.Uint16(data[next : next+2])),
		})
		off = next + 4
	}
	var err error
	for _, sec := range [...]struct {
		n   int
		dst *[]Record
	}{{an, &m.Answers}, {ns, &m.Authority}, {ar, &m.Additional}} {
		for i := 0; i < sec.n; i++ {
			*sec.dst = append(*sec.dst, Record{})
			if off, err = d.record(&(*sec.dst)[len(*sec.dst)-1], off); err != nil {
				return err
			}
		}
	}
	return nil
}

// record decodes the resource record at off into rr, which must be zero,
// and returns the offset just past it.
func (d *decoder) record(rr *Record, off int) (int, error) {
	msg := d.msg
	name, next, err := d.name(off)
	if err != nil {
		return 0, err
	}
	if next+10 > len(msg) {
		return 0, ErrTruncatedMsg
	}
	rr.Name = name
	rr.Type = Type(binary.BigEndian.Uint16(msg[next : next+2]))
	rr.TTL = binary.BigEndian.Uint32(msg[next+4 : next+8])
	rdLen := int(binary.BigEndian.Uint16(msg[next+8 : next+10]))
	rdStart := next + 10
	if rdStart+rdLen > len(msg) {
		return 0, ErrTruncatedMsg
	}
	rdata := msg[rdStart : rdStart+rdLen]
	switch rr.Type {
	case TypeA:
		if rdLen != 4 {
			return 0, fmt.Errorf("dnsmsg: A rdata length %d", rdLen)
		}
		rr.Addr = netip.AddrFrom4([4]byte(rdata))
	case TypeAAAA:
		if rdLen != 16 {
			return 0, fmt.Errorf("dnsmsg: AAAA rdata length %d", rdLen)
		}
		rr.Addr = netip.AddrFrom16([16]byte(rdata))
	case TypeCNAME, TypePTR, TypeSOA:
		if rr.Target, _, err = d.name(rdStart); err != nil {
			return 0, err
		}
	case TypeTXT:
		for p := 0; p < len(rdata); {
			l := int(rdata[p])
			if p+1+l > len(rdata) {
				return 0, ErrTruncatedMsg
			}
			rr.Text = append(rr.Text, string(rdata[p+1:p+1+l]))
			p += 1 + l
		}
	case TypeSRV:
		if rdLen < 7 {
			return 0, ErrTruncatedMsg
		}
		rr.Priority = binary.BigEndian.Uint16(rdata[0:2])
		rr.Port = binary.BigEndian.Uint16(rdata[4:6])
		if rr.Target, _, err = d.name(rdStart + 6); err != nil {
			return 0, err
		}
	case TypeSVCB, TypeHTTPS:
		if rdLen < 3 {
			return 0, ErrTruncatedMsg
		}
		rr.Priority = binary.BigEndian.Uint16(rdata[0:2])
		var after int
		if rr.Target, after, err = d.name(rdStart + 2); err != nil {
			return 0, err
		}
		if after > rdStart+rdLen {
			// The target name ran past the rdata.
			return 0, ErrTruncatedMsg
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
	return rdStart + rdLen, nil
}

// CanonicalName lowercases and strips the trailing dot, the normalization
// the analysis pipeline applies before grouping by domain.
func CanonicalName(name string) string {
	return strings.ToLower(strings.TrimSuffix(name, "."))
}

// SLD returns the second-level domain of a canonical name (the last two
// labels), which §5.4.3 groups tracking destinations by. The result is a
// substring of the canonical name.
func SLD(name string) string {
	c := CanonicalName(name)
	if i := strings.LastIndexByte(c, '.'); i >= 0 {
		if j := strings.LastIndexByte(c[:i], '.'); j >= 0 {
			return c[j+1:]
		}
	}
	return c
}
