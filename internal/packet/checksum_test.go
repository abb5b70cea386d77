package packet

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

// sum16Ref is the word-at-a-time RFC 1071 definition of the running sum:
// big-endian 16-bit words, an odd trailing byte padded with a zero low
// byte, carries folded back in at the end.
func sum16Ref(sum uint32, data []byte) uint32 {
	s := uint64(sum)
	for i := 0; i+1 < len(data); i += 2 {
		s += uint64(data[i])<<8 | uint64(data[i+1])
	}
	if len(data)%2 == 1 {
		s += uint64(data[len(data)-1]) << 8
	}
	for s>>16 != 0 {
		s = s&0xffff + s>>16
	}
	return uint32(s)
}

// checksumLengths returns every length up to 300 (all tail shapes of the
// 32-byte kernel step, several times over) plus a spread of larger ones up
// to 40,000 bytes, including the 32,000-byte bulk segment size.
func checksumLengths() []int {
	var ns []int
	for n := 0; n <= 300; n++ {
		ns = append(ns, n)
	}
	for n := 301; n < 40000; n += 997 {
		ns = append(ns, n, n+1)
	}
	return append(ns, 1499, 1500, 31999, 32000, 32001, 39999, 40000)
}

// Carried-in sums as pseudoHeaderSum chains them (folded sums plus the
// protocol and length words), plus the uint32 extremes.
var carriedSums = []uint32{0, 1, 0xffff, 0x10000, 0x1fffe, 0x200fe, 0xffffffff}

// TestSum16MatchesReference compares the 64-bit kernel with the
// word-at-a-time definition over random, all-0xff and all-zero data, at
// every length shape, from even and odd buffer offsets, with the carried-in
// sums the pseudo-header chain produces.
func TestSum16MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	random := make([]byte, 40001)
	for i := range random {
		random[i] = byte(rng.Uint32())
	}
	fills := map[string][]byte{
		"random": random,
		"ones":   bytes.Repeat([]byte{0xff}, 40001),
		"zeros":  make([]byte, 40001),
	}
	sums := append(carriedSums, rng.Uint32(), rng.Uint32()&0x3ffff)
	for name, buf := range fills {
		for _, n := range checksumLengths() {
			for off := 0; off <= 1; off++ {
				data := buf[off : off+n]
				for _, sum := range sums {
					if got, want := sum16(sum, data), sum16Ref(sum, data); got != want {
						t.Fatalf("%s len=%d off=%d sum=%#x: sum16 = %#x, reference %#x", name, n, off, sum, got, want)
					}
				}
			}
		}
	}
}

// TestSum16Chained checks the chaining pseudoHeaderSum and
// TransportChecksum rely on: feeding one call's result into the next
// equals the reference over the same pieces.
func TestSum16Chained(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for range 200 {
		var got, want uint32
		for range 1 + rng.IntN(4) {
			piece := make([]byte, 2*rng.IntN(600))
			for i := range piece {
				piece[i] = byte(rng.Uint32())
			}
			extra := rng.Uint32() & 0xffff
			got, want = sum16(got+extra, piece), sum16Ref(want+extra, piece)
		}
		if got != want {
			t.Fatalf("chained sum16 = %#x, reference %#x", got, want)
		}
	}
}

// FuzzChecksum compares the kernel with the reference on arbitrary bytes
// and carried-in sums.
func FuzzChecksum(f *testing.F) {
	f.Add(uint32(0), []byte{})
	f.Add(uint32(0x200fe), []byte{0xff})
	f.Add(uint32(0xffff), bytes.Repeat([]byte{0xff}, 67))
	f.Add(uint32(0), []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7})
	f.Fuzz(func(t *testing.T, sum uint32, data []byte) {
		if got, want := sum16(sum, data), sum16Ref(sum, data); got != want {
			t.Fatalf("sum16(%#x, %x) = %#x, reference %#x", sum, data, got, want)
		}
	})
}
