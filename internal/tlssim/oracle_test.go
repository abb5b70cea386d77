package tlssim

// The hello encoder as it was before it learned to append into the
// caller's buffer: one slice per nesting level, copied outward. It stays
// as a test-only oracle that AppendClientHello must match byte for byte.

import (
	"encoding/binary"
	"math/rand"
)

// oracleClientHello serializes a minimal TLS record containing a ClientHello
// whose SNI names host. rng randomizes the client random; it may be nil
// for a zero random.
func oracleClientHello(host string, rng *rand.Rand) []byte {
	// Extensions: server_name only.
	nameBytes := []byte(host)
	sniEntry := make([]byte, 3+len(nameBytes))
	sniEntry[0] = sniHostNameType
	binary.BigEndian.PutUint16(sniEntry[1:3], uint16(len(nameBytes)))
	copy(sniEntry[3:], nameBytes)
	sniList := make([]byte, 2+len(sniEntry))
	binary.BigEndian.PutUint16(sniList[0:2], uint16(len(sniEntry)))
	copy(sniList[2:], sniEntry)
	ext := make([]byte, 4+len(sniList))
	binary.BigEndian.PutUint16(ext[0:2], extensionServerName)
	binary.BigEndian.PutUint16(ext[2:4], uint16(len(sniList)))
	copy(ext[4:], sniList)

	// ClientHello body.
	body := make([]byte, 0, 64+len(ext))
	body = binary.BigEndian.AppendUint16(body, versionTLS12)
	random := make([]byte, 32)
	if rng != nil {
		for i := range random {
			random[i] = byte(rng.Intn(256))
		}
	}
	body = append(body, random...)
	body = append(body, 0)                                       // session id length
	body = append(body, 0, 2, 0x13, 0x01)                        // one cipher suite: TLS_AES_128_GCM_SHA256
	body = append(body, 1, 0)                                    // compression: null
	body = binary.BigEndian.AppendUint16(body, uint16(len(ext))) // extensions length
	body = append(body, ext...)

	// Handshake header.
	hs := make([]byte, 4+len(body))
	hs[0] = handshakeClientHello
	hs[1] = byte(len(body) >> 16)
	hs[2] = byte(len(body) >> 8)
	hs[3] = byte(len(body))
	copy(hs[4:], body)

	// Record header.
	rec := make([]byte, 5+len(hs))
	rec[0] = recordTypeHandshake
	binary.BigEndian.PutUint16(rec[1:3], versionTLS12)
	binary.BigEndian.PutUint16(rec[3:5], uint16(len(hs)))
	copy(rec[5:], hs)
	return rec
}
