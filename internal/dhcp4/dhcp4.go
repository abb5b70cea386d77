// Package dhcp4 implements the subset of DHCPv4 (RFC 2131) the testbed
// router and devices exchange: DISCOVER/OFFER/REQUEST/ACK with the
// subnet-mask, router, DNS-server, lease-time, requested-IP, server-ID and
// message-type options.
package dhcp4

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"

	"v6lab/internal/packet"
)

// Message types (option 53).
const (
	Discover uint8 = 1
	Offer    uint8 = 2
	Request  uint8 = 3
	ACK      uint8 = 5
	NAK      uint8 = 6
)

// Option codes.
const (
	OptSubnetMask  uint8 = 1
	OptRouter      uint8 = 3
	OptDNSServers  uint8 = 6
	OptRequestedIP uint8 = 50
	OptLeaseTime   uint8 = 51
	OptMessageType uint8 = 53
	OptServerID    uint8 = 54
	OptEnd         uint8 = 255
)

// UDP ports.
const (
	ServerPort uint16 = 67
	ClientPort uint16 = 68
)

var magicCookie = [4]byte{99, 130, 83, 99}

// Message is a DHCPv4 message.
type Message struct {
	Op         uint8 // 1 request, 2 reply
	XID        uint32
	ClientIP   netip.Addr // ciaddr
	YourIP     netip.Addr // yiaddr
	ServerIP   netip.Addr // siaddr
	ClientMAC  packet.MAC
	Type       uint8 // option 53
	SubnetMask netip.Addr
	Router     netip.Addr
	DNS        []netip.Addr
	Requested  netip.Addr
	ServerID   netip.Addr
	LeaseSecs  uint32
}

const fixedLen = 240 // BOOTP header (236) + magic cookie

// addr4OrUnset returns the 4-byte address, or the zero Addr when the field
// is 0.0.0.0 (BOOTP's "unset").
func addr4OrUnset(b []byte) netip.Addr {
	if b[0] == 0 && b[1] == 0 && b[2] == 0 && b[3] == 0 {
		return netip.Addr{}
	}
	return netip.AddrFrom4([4]byte(b))
}

func putAddr4(b []byte, a netip.Addr) {
	if a.Is4() {
		v := a.As4()
		copy(b, v[:])
	}
}

// AppendMarshal appends the encoded message to b and returns the extended
// slice; encoding into a buffer with room allocates nothing. On error b
// is returned unchanged.
func (m *Message) AppendMarshal(b []byte) ([]byte, error) {
	if m.Type == 0 {
		return b, errors.New("dhcp4: message type unset")
	}
	start := len(b)
	b = append(b, make([]byte, fixedLen)...)
	h := b[start:]
	h[0] = m.Op
	h[1] = 1 // htype ethernet
	h[2] = 6 // hlen
	binary.BigEndian.PutUint32(h[4:8], m.XID)
	putAddr4(h[12:16], m.ClientIP)
	putAddr4(h[16:20], m.YourIP)
	putAddr4(h[20:24], m.ServerIP)
	copy(h[28:34], m.ClientMAC[:])
	copy(h[236:240], magicCookie[:])
	b = append(b, OptMessageType, 1, m.Type)
	b = appendAddrOpt(b, OptSubnetMask, m.SubnetMask)
	b = appendAddrOpt(b, OptRouter, m.Router)
	b = appendAddrOpt(b, OptRequestedIP, m.Requested)
	b = appendAddrOpt(b, OptServerID, m.ServerID)
	if len(m.DNS) > 0 {
		b = append(b, OptDNSServers, uint8(4*len(m.DNS)))
		for _, d := range m.DNS {
			if !d.Is4() {
				return b[:start], fmt.Errorf("dhcp4: DNS server %v not IPv4", d)
			}
			v := d.As4()
			b = append(b, v[:]...)
		}
	}
	if m.LeaseSecs != 0 {
		b = append(b, OptLeaseTime, 4)
		b = binary.BigEndian.AppendUint32(b, m.LeaseSecs)
	}
	return append(b, OptEnd), nil
}

// appendAddrOpt appends an IPv4-address option when a is set.
func appendAddrOpt(b []byte, code uint8, a netip.Addr) []byte {
	if !a.Is4() {
		return b
	}
	v := a.As4()
	return append(b, code, 4, v[0], v[1], v[2], v[3])
}

// UnmarshalInto decodes a DHCPv4 message into m, reusing the backing
// array of m.DNS, so a receiver that keeps one Message decodes without
// allocating. On error m's contents are unspecified.
func UnmarshalInto(m *Message, data []byte) error {
	if len(data) < fixedLen {
		return packet.ErrTruncated
	}
	if [4]byte(data[236:240]) != magicCookie {
		return errors.New("dhcp4: missing magic cookie")
	}
	dns := m.DNS[:0]
	*m = Message{
		Op:       data[0],
		XID:      binary.BigEndian.Uint32(data[4:8]),
		ClientIP: addr4OrUnset(data[12:16]),
		YourIP:   addr4OrUnset(data[16:20]),
		ServerIP: addr4OrUnset(data[20:24]),
	}
	copy(m.ClientMAC[:], data[28:34])
	opts := data[fixedLen:]
	for len(opts) > 0 {
		code := opts[0]
		if code == OptEnd {
			break
		}
		if code == 0 { // pad
			opts = opts[1:]
			continue
		}
		if len(opts) < 2 || len(opts) < 2+int(opts[1]) {
			return packet.ErrTruncated
		}
		val := opts[2 : 2+opts[1]]
		switch code {
		case OptMessageType:
			if len(val) == 1 {
				m.Type = val[0]
			}
		case OptSubnetMask:
			if len(val) == 4 {
				m.SubnetMask = netip.AddrFrom4([4]byte(val))
			}
		case OptRouter:
			if len(val) >= 4 {
				m.Router = netip.AddrFrom4([4]byte(val[:4]))
			}
		case OptRequestedIP:
			if len(val) == 4 {
				m.Requested = netip.AddrFrom4([4]byte(val))
			}
		case OptServerID:
			if len(val) == 4 {
				m.ServerID = netip.AddrFrom4([4]byte(val))
			}
		case OptDNSServers:
			for p := 0; p+4 <= len(val); p += 4 {
				dns = append(dns, netip.AddrFrom4([4]byte(val[p:p+4])))
			}
		case OptLeaseTime:
			if len(val) == 4 {
				m.LeaseSecs = binary.BigEndian.Uint32(val)
			}
		}
		opts = opts[2+opts[1]:]
	}
	m.DNS = dns
	if m.Type == 0 {
		return errors.New("dhcp4: no message type option")
	}
	return nil
}
