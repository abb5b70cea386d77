// Package tlssim builds and parses just enough of a TLS 1.2/1.3
// ClientHello to carry a Server Name Indication extension. The paper's
// pipeline extracts destination domains "from the DNS queries and TLS
// handshake data" (§5.2.2); the simulated devices open their application
// connections with these hellos so the analyzer can exercise the same
// extraction path.
package tlssim

import (
	"encoding/binary"
	"errors"
	"math/rand"
)

const (
	recordTypeHandshake   = 22
	handshakeClientHello  = 1
	extensionServerName   = 0
	sniHostNameType       = 0
	versionTLS12          = 0x0303
	clientHelloHeaderSkip = 2 + 32 // version + random
)

// ErrNotClientHello is returned when a payload is not a TLS ClientHello.
var ErrNotClientHello = errors.New("tlssim: not a client hello")

// AppendClientHello appends a minimal TLS record containing a
// ClientHello whose SNI names host to b and returns the extended slice.
// rng randomizes the client random; it may be nil for a zero random, in
// which case the record depends only on host.
func AppendClientHello(b []byte, host string, rng *rand.Rand) []byte {
	n := len(host)
	// server_name extension data: list length, then one host_name entry.
	sniLen := 2 + 3 + n
	extLen := 4 + sniLen
	// version, random, session id, one cipher suite, null compression,
	// extensions length, extensions.
	bodyLen := 2 + 32 + 1 + 4 + 2 + 2 + extLen

	b = append(b, recordTypeHandshake)
	b = binary.BigEndian.AppendUint16(b, versionTLS12)
	b = binary.BigEndian.AppendUint16(b, uint16(4+bodyLen))
	b = append(b, handshakeClientHello, byte(bodyLen>>16), byte(bodyLen>>8), byte(bodyLen))

	b = binary.BigEndian.AppendUint16(b, versionTLS12)
	random := len(b)
	b = append(b, make([]byte, 32)...)
	if rng != nil {
		for i := random; i < random+32; i++ {
			b[i] = byte(rng.Intn(256))
		}
	}
	b = append(b, 0)                // session id length
	b = append(b, 0, 2, 0x13, 0x01) // one cipher suite: TLS_AES_128_GCM_SHA256
	b = append(b, 1, 0)             // compression: null
	b = binary.BigEndian.AppendUint16(b, uint16(extLen))

	b = binary.BigEndian.AppendUint16(b, extensionServerName)
	b = binary.BigEndian.AppendUint16(b, uint16(sniLen))
	b = binary.BigEndian.AppendUint16(b, uint16(3+n))
	b = append(b, sniHostNameType)
	b = binary.BigEndian.AppendUint16(b, uint16(n))
	return append(b, host...)
}

// SNI extracts the server name from a TLS ClientHello record as a view
// into payload, returning ErrNotClientHello for payloads that are not
// hellos and nil (no error) for hellos without the extension.
func SNI(payload []byte) ([]byte, error) {
	if len(payload) < 5 || payload[0] != recordTypeHandshake {
		return nil, ErrNotClientHello
	}
	recLen := int(binary.BigEndian.Uint16(payload[3:5]))
	if len(payload) < 5+recLen {
		return nil, ErrNotClientHello
	}
	hs := payload[5 : 5+recLen]
	if len(hs) < 4 || hs[0] != handshakeClientHello {
		return nil, ErrNotClientHello
	}
	hsLen := int(hs[1])<<16 | int(hs[2])<<8 | int(hs[3])
	if len(hs) < 4+hsLen {
		return nil, ErrNotClientHello
	}
	b := hs[4 : 4+hsLen]
	if len(b) < clientHelloHeaderSkip+1 {
		return nil, ErrNotClientHello
	}
	p := clientHelloHeaderSkip
	sessLen := int(b[p])
	p += 1 + sessLen
	if len(b) < p+2 {
		return nil, ErrNotClientHello
	}
	csLen := int(binary.BigEndian.Uint16(b[p : p+2]))
	p += 2 + csLen
	if len(b) < p+1 {
		return nil, ErrNotClientHello
	}
	compLen := int(b[p])
	p += 1 + compLen
	if len(b) < p+2 {
		return nil, nil // no extensions block: legal, no SNI
	}
	extLen := int(binary.BigEndian.Uint16(b[p : p+2]))
	p += 2
	if len(b) < p+extLen {
		return nil, ErrNotClientHello
	}
	exts := b[p : p+extLen]
	for len(exts) >= 4 {
		typ := binary.BigEndian.Uint16(exts[0:2])
		l := int(binary.BigEndian.Uint16(exts[2:4]))
		if len(exts) < 4+l {
			return nil, ErrNotClientHello
		}
		if typ == extensionServerName {
			v := exts[4 : 4+l]
			if len(v) < 2 {
				return nil, ErrNotClientHello
			}
			list := v[2:]
			for len(list) >= 3 {
				nameLen := int(binary.BigEndian.Uint16(list[1:3]))
				if len(list) < 3+nameLen {
					return nil, ErrNotClientHello
				}
				if list[0] == sniHostNameType {
					return list[3 : 3+nameLen], nil
				}
				list = list[3+nameLen:]
			}
		}
		exts = exts[4+l:]
	}
	return nil, nil
}
