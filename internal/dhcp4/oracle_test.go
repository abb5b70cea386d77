package dhcp4

// The codec as it was before messages learned to encode by appending to
// the caller's buffer and to decode into a reused Message. It stays as a
// test-only oracle so the differential fuzz target (FuzzDHCP4) can hold
// the rewritten codec to the original's decisions and bytes.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"

	"v6lab/internal/packet"
)

// oracleMarshal encodes the message.
func oracleMarshal(m *Message) ([]byte, error) {
	if m.Type == 0 {
		return nil, errors.New("dhcp4: message type unset")
	}
	b := make([]byte, fixedLen, fixedLen+64)
	b[0] = m.Op
	b[1] = 1 // htype ethernet
	b[2] = 6 // hlen
	binary.BigEndian.PutUint32(b[4:8], m.XID)
	putAddr4(b[12:16], m.ClientIP)
	putAddr4(b[16:20], m.YourIP)
	putAddr4(b[20:24], m.ServerIP)
	copy(b[28:34], m.ClientMAC[:])
	copy(b[236:240], magicCookie[:])
	b = append(b, OptMessageType, 1, m.Type)
	appendAddr := func(code uint8, a netip.Addr) {
		if a.Is4() {
			v := a.As4()
			b = append(b, code, 4, v[0], v[1], v[2], v[3])
		}
	}
	appendAddr(OptSubnetMask, m.SubnetMask)
	appendAddr(OptRouter, m.Router)
	appendAddr(OptRequestedIP, m.Requested)
	appendAddr(OptServerID, m.ServerID)
	if len(m.DNS) > 0 {
		b = append(b, OptDNSServers, uint8(4*len(m.DNS)))
		for _, d := range m.DNS {
			if !d.Is4() {
				return nil, fmt.Errorf("dhcp4: DNS server %v not IPv4", d)
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

// oracleUnmarshal decodes a DHCPv4 message.
func oracleUnmarshal(data []byte) (*Message, error) {
	if len(data) < fixedLen {
		return nil, packet.ErrTruncated
	}
	if [4]byte(data[236:240]) != magicCookie {
		return nil, errors.New("dhcp4: missing magic cookie")
	}
	m := &Message{
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
			return nil, packet.ErrTruncated
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
				m.DNS = append(m.DNS, netip.AddrFrom4([4]byte(val[p:p+4])))
			}
		case OptLeaseTime:
			if len(val) == 4 {
				m.LeaseSecs = binary.BigEndian.Uint32(val)
			}
		}
		opts = opts[2+opts[1]:]
	}
	if m.Type == 0 {
		return nil, errors.New("dhcp4: no message type option")
	}
	return m, nil
}
