package packet

import (
	"fmt"
	"net/netip"
	"testing"
)

var (
	benchFrame   []byte
	checksumSink uint16
)

func init() {
	src := netip.MustParseAddr("2001:470:8:100::10")
	dst := netip.MustParseAddr("2606:4700:10::1")
	f, err := Serialize(
		&Ethernet{Dst: MAC{2, 1, 2, 3, 4, 5}, Src: MAC{2, 5, 4, 3, 2, 1}, Type: EtherTypeIPv6},
		&IPv6{NextHeader: IPProtocolTCP, Src: src, Dst: dst},
		&TCP{SrcPort: 40000, DstPort: 443, Flags: TCPFlagPSH | TCPFlagACK, Src: src, Dst: dst},
		Raw(make([]byte, 512)),
	)
	if err != nil {
		panic(err)
	}
	benchFrame = f
}

// BenchmarkParse measures full-frame decoding (the analysis pipeline's
// inner loop).
func BenchmarkParse(b *testing.B) {
	b.SetBytes(int64(len(benchFrame)))
	for i := 0; i < b.N; i++ {
		p := Parse(benchFrame)
		if p.Err != nil {
			b.Fatal(p.Err)
		}
	}
}

// BenchmarkSerializeTCPv6 measures building a frame from layers (the
// device stacks' hot path).
func BenchmarkSerializeTCPv6(b *testing.B) {
	src := netip.MustParseAddr("2001:470:8:100::10")
	dst := netip.MustParseAddr("2606:4700:10::1")
	payload := make([]byte, 512)
	b.SetBytes(int64(len(benchFrame)))
	for i := 0; i < b.N; i++ {
		_, err := Serialize(
			&Ethernet{Dst: MAC{2, 1, 2, 3, 4, 5}, Src: MAC{2, 5, 4, 3, 2, 1}, Type: EtherTypeIPv6},
			&IPv6{NextHeader: IPProtocolTCP, Src: src, Dst: dst},
			&TCP{SrcPort: 40000, DstPort: 443, Flags: TCPFlagPSH | TCPFlagACK, Src: src, Dst: dst},
			Raw(payload),
		)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChecksum measures the Internet checksum over a 1500-byte MTU
// and over the 32,000-byte bulk TCP segment the §5 workloads send.
func BenchmarkChecksum(b *testing.B) {
	for _, n := range []int{1500, 32000} {
		b.Run(fmt.Sprintf("bytes=%d", n), func(b *testing.B) {
			data := make([]byte, n)
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				checksumSink = Checksum(data)
			}
		})
	}
}
