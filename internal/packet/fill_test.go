package packet

import (
	"bytes"
	"fmt"
	"testing"
)

// staleStacks returns one frame of every serializable layer: Ethernet,
// ARP, IPv4, IPv6, ICMPv4, ICMPv6 with a body, UDP, TCP with 0–3 bytes of
// option padding, Raw and Fill.
func staleStacks() map[string][]SerializableLayer {
	eth4 := &Ethernet{Dst: mac2, Src: mac1, Type: EtherTypeIPv4}
	eth6 := &Ethernet{Dst: mac2, Src: mac1, Type: EtherTypeIPv6}
	stacks := map[string][]SerializableLayer{
		"arp": {&Ethernet{Dst: BroadcastMAC, Src: mac1, Type: EtherTypeARP},
			&ARP{Op: ARPRequest, SenderMAC: mac1, SenderIP: ip41, TargetIP: ip42}},
		"icmpv4": {eth4, &IPv4{Protocol: IPProtocolICMPv4, Src: ip41, Dst: ip42},
			&ICMPv4{Type: ICMPv4TypeEchoRequest, Body: []byte{0, 1, 0, 7, 'p', 'i', 'n', 'g', '!'}}},
		"icmpv6": {eth6, &IPv6{NextHeader: IPProtocolICMPv6, Src: ip61, Dst: ip62},
			&ICMPv6{Type: ICMPv6TypeEchoRequest, Body: []byte{0, 7, 0, 1, 'x'}, Src: ip61, Dst: ip62}},
		"udp-raw": {eth4, &IPv4{Protocol: IPProtocolUDP, Src: ip41, Dst: ip42},
			&UDP{SrcPort: 5353, DstPort: 53, Src: ip41, Dst: ip42}, Raw("query")},
		"udp-fill": {eth6, &IPv6{NextHeader: IPProtocolUDP, Src: ip61, Dst: ip62},
			&UDP{SrcPort: 5353, DstPort: 53, Src: ip61, Dst: ip62}, &Fill{Prefix: []byte("abc"), Byte: 0x17, N: 7}},
	}
	for opts := 4; opts < 8; opts++ { // 0, 3, 2 and 1 bytes of padding
		stacks[fmt.Sprintf("tcp-%d-option-bytes", opts)] = []SerializableLayer{
			eth6, &IPv6{NextHeader: IPProtocolTCP, Src: ip61, Dst: ip62},
			&TCP{SrcPort: 40000, DstPort: 443, Seq: 7, Ack: 9, Flags: TCPFlagPSH | TCPFlagACK,
				Options: []byte{2, 4, 5, 0xb4, 1, 3, 3}[:opts], Src: ip61, Dst: ip62},
			&Fill{Prefix: []byte("hello"), Byte: 0x17, N: 1000 + opts},
		}
	}
	return stacks
}

// TestSerializeOverStaleBytes: Prepend hands out memory uncleared, so every
// layer must write every byte it prepends. Each frame is serialized into
// a buffer and into an arena holding 0xA5 garbage and must equal the frame
// Serialize builds on zeroed memory.
func TestSerializeOverStaleBytes(t *testing.T) {
	stale := bytes.Repeat([]byte{0xA5}, 4096)
	a := &Arena{ChunkSize: len(stale)}
	for name, layers := range staleStacks() {
		want, err := Serialize(layers...)
		if err != nil {
			t.Fatal(err)
		}
		b := &Buffer{data: append([]byte(nil), stale...)}
		got, err := SerializeInto(b, layers...)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s over a stale buffer:\n got %x\nwant %x", name, got, want)
		}
		a.Reset()
		if _, err := a.Serialize(Raw(stale)); err != nil {
			t.Fatal(err)
		}
		a.Reset()
		if got, err = a.Serialize(layers...); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s over a stale arena:\n got %x\nwant %x", name, got, want)
		}
	}
}

// TestFillSum: for every prefix parity × N parity, the closed-form sum a
// Fill records equals sum16 over the bytes it wrote, and a TCP segment
// over the Fill equals one over the materialized bytes.
func TestFillSum(t *testing.T) {
	prefixes := [][]byte{nil, {0xfe}, []byte("hello!"), []byte("hello"), bytes.Repeat([]byte{0xff}, 301)}
	for _, prefix := range prefixes {
		for _, n := range []int{0, 1, 2, 3, 31999, 32000} {
			for _, c := range []byte{0x00, 0x17, 0xff} {
				f := &Fill{Prefix: prefix, Byte: c, N: n}
				b := NewBuffer(0)
				if err := SerializeLayers(b, f); err != nil {
					t.Fatal(err)
				}
				want := append(append([]byte(nil), prefix...), bytes.Repeat([]byte{c}, n)...)
				if !bytes.Equal(b.Bytes(), want) {
					t.Fatalf("Fill(%d-byte prefix, %#x×%d) wrote the wrong bytes", len(prefix), c, n)
				}
				if got, ref := b.contentSum(), sum16Ref(0, want); !b.sumOK || got != ref {
					t.Errorf("Fill(%d-byte prefix, %#x×%d) sum = %#x (recorded %v), sum16 %#x", len(prefix), c, n, got, b.sumOK, ref)
				}
				tcp := &TCP{SrcPort: 40000, DstPort: 443, Flags: TCPFlagACK, Src: ip61, Dst: ip62}
				viaFill, _ := Serialize(tcp, f)
				viaRaw, _ := Serialize(tcp, Raw(want))
				if !bytes.Equal(viaFill, viaRaw) {
					t.Errorf("TCP over Fill(%d-byte prefix, %#x×%d) differs from TCP over its bytes", len(prefix), c, n)
				}
			}
		}
	}
}

// FuzzFillSum compares the closed-form Fill sum with sum16 over the
// materialized bytes for arbitrary prefixes, fill bytes and lengths.
func FuzzFillSum(f *testing.F) {
	f.Add([]byte{}, byte(0x17), uint16(0))
	f.Add([]byte{0xff}, byte(0xff), uint16(1))
	f.Add([]byte("hello"), byte(0x17), uint16(32000))
	f.Add(bytes.Repeat([]byte{0xff}, 64), byte(0x01), uint16(65535))
	f.Fuzz(func(t *testing.T, prefix []byte, c byte, n uint16) {
		fill := &Fill{Prefix: prefix, Byte: c, N: int(n)}
		want := append(append([]byte(nil), prefix...), bytes.Repeat([]byte{c}, int(n))...)
		if got, ref := fill.sum(), sum16Ref(0, want); got != ref {
			t.Fatalf("Fill(%x, %#x×%d) sum = %#x, sum16 %#x", prefix, c, n, got, ref)
		}
	})
}
