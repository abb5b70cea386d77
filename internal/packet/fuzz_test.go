package packet

import (
	"bytes"
	"net/netip"
	"reflect"
	"testing"
)

// fuzzSeeds builds a small corpus of well-formed frames spanning the layer
// types the decoder walks, so the fuzzer starts from valid structure and
// mutates toward the interesting truncation/corruption boundaries.
func fuzzSeeds() [][]byte {
	src6 := netip.MustParseAddr("2001:470:8:100::10")
	dst6 := netip.MustParseAddr("2606:4700:10::1")
	src4 := netip.MustParseAddr("192.168.1.10")
	dst4 := netip.MustParseAddr("8.8.8.8")
	ethv6 := &Ethernet{Dst: MAC{2, 1, 2, 3, 4, 5}, Src: MAC{2, 5, 4, 3, 2, 1}, Type: EtherTypeIPv6}
	ethv4 := &Ethernet{Dst: MAC{2, 1, 2, 3, 4, 5}, Src: MAC{2, 5, 4, 3, 2, 1}, Type: EtherTypeIPv4}

	var seeds [][]byte
	add := func(f []byte, err error) {
		if err != nil {
			panic(err)
		}
		seeds = append(seeds, f)
	}
	add(Serialize(ethv6,
		&IPv6{NextHeader: IPProtocolTCP, Src: src6, Dst: dst6},
		&TCP{SrcPort: 40000, DstPort: 443, Flags: TCPFlagPSH | TCPFlagACK, Src: src6, Dst: dst6},
		Raw(bytes.Repeat([]byte{0xab}, 64))))
	add(Serialize(ethv6,
		&IPv6{NextHeader: IPProtocolUDP, Src: src6, Dst: dst6},
		&UDP{SrcPort: 5353, DstPort: 53, Src: src6, Dst: dst6},
		Raw(bytes.Repeat([]byte{0x01}, 32))))
	add(Serialize(ethv6,
		&IPv6{NextHeader: IPProtocolICMPv6, HopLimit: 255, Src: src6, Dst: dst6},
		&ICMPv6{Type: ICMPv6TypeRouterSolicit, Src: src6, Dst: dst6}))
	add(Serialize(ethv4,
		&IPv4{Protocol: IPProtocolUDP, TTL: 64, Src: src4, Dst: dst4},
		&UDP{SrcPort: 53, DstPort: 5353, Src: src4, Dst: dst4},
		Raw(bytes.Repeat([]byte{0x02}, 24))))
	add(Serialize(
		&Ethernet{Dst: BroadcastMAC, Src: MAC{2, 5, 4, 3, 2, 1}, Type: EtherTypeARP},
		&ARP{Op: ARPRequest, SenderMAC: MAC{2, 5, 4, 3, 2, 1}, SenderIP: src4, TargetIP: dst4}))
	return seeds
}

// FuzzDecoderParse drives the reusable Decoder — the parser on every
// steady-state hot path, including the streaming analysis tap — over
// arbitrary bytes. It asserts the properties the pipeline relies on: no
// input panics; a nil Err implies the link layer (Parse) or an IP layer
// (ParseIP) was decoded, which the streaming Observer's skip condition
// assumes; and a Decoder reused across every input decodes each one to
// exactly the layer values, payload and error a fresh Decoder (the
// package-level Parse/ParseIP) does, so no state leaks between frames.
func FuzzDecoderParse(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte{0x60})                   // IPv6 version nibble, truncated header
	f.Add([]byte{0x45, 0x00})             // IPv4 version nibble, truncated header
	f.Add(bytes.Repeat([]byte{0xff}, 14)) // Ethernet header, unknown EtherType

	dec := NewDecoder()
	f.Fuzz(func(t *testing.T, data []byte) {
		p := dec.Parse(data)
		if p.Err == nil && p.Ethernet == nil {
			t.Fatalf("Parse(%x): nil Err but no Ethernet layer", data)
		}
		if fresh := Parse(data); !reflect.DeepEqual(p, fresh) {
			t.Fatalf("Parse(%x): reused decoder %+v, fresh decoder %+v", data, *p, *fresh)
		}

		ip := dec.ParseIP(data)
		if ip.Err == nil && ip.IPv4 == nil && ip.IPv6 == nil {
			t.Fatalf("ParseIP(%x): nil Err but no IP layer", data)
		}
		if fresh := ParseIP(data); !reflect.DeepEqual(ip, fresh) {
			t.Fatalf("ParseIP(%x): reused decoder %+v, fresh decoder %+v", data, *ip, *fresh)
		}
	})
}
