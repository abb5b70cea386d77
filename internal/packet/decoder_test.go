package packet

import (
	"net/netip"
	"reflect"
	"testing"
)

// sampleFrames builds a representative frame set: ARP, IPv4/UDP, IPv4/TCP,
// IPv6/ICMPv6, IPv6/UDP, IPv6/TCP, plus malformed tails.
func sampleFrames(t *testing.T) [][]byte {
	t.Helper()
	mac1 := MAC{2, 0, 0, 0, 0, 1}
	mac2 := MAC{2, 0, 0, 0, 0, 2}
	v4a := netip.MustParseAddr("192.168.1.10")
	v4b := netip.MustParseAddr("8.8.8.8")
	v6a := netip.MustParseAddr("2001:470:8:100::10")
	v6b := netip.MustParseAddr("2001:4860:4860::8888")
	var frames [][]byte
	add := func(layers ...SerializableLayer) {
		t.Helper()
		f, err := Serialize(layers...)
		if err != nil {
			t.Fatalf("serialize: %v", err)
		}
		frames = append(frames, f)
	}
	add(&Ethernet{Dst: mac2, Src: mac1, Type: EtherTypeARP},
		&ARP{Op: ARPRequest, SenderMAC: mac1, SenderIP: v4a, TargetIP: netip.MustParseAddr("192.168.1.1")})
	add(&Ethernet{Dst: mac2, Src: mac1, Type: EtherTypeIPv4},
		&IPv4{Protocol: IPProtocolUDP, Src: v4a, Dst: v4b},
		&UDP{SrcPort: 40000, DstPort: 53, Src: v4a, Dst: v4b},
		Raw([]byte("payload")))
	add(&Ethernet{Dst: mac2, Src: mac1, Type: EtherTypeIPv4},
		&IPv4{Protocol: IPProtocolTCP, Src: v4a, Dst: v4b},
		&TCP{SrcPort: 40001, DstPort: 443, Seq: 1, Flags: TCPFlagSYN, Src: v4a, Dst: v4b})
	add(&Ethernet{Dst: mac2, Src: mac1, Type: EtherTypeIPv6},
		&IPv6{NextHeader: IPProtocolICMPv6, HopLimit: 255, Src: v6a, Dst: v6b},
		&ICMPv6{Type: ICMPv6TypeEchoRequest, Body: []byte{0, 1, 0, 2}, Src: v6a, Dst: v6b})
	add(&Ethernet{Dst: mac2, Src: mac1, Type: EtherTypeIPv6},
		&IPv6{NextHeader: IPProtocolUDP, HopLimit: 64, Src: v6a, Dst: v6b},
		&UDP{SrcPort: 40002, DstPort: 123, Src: v6a, Dst: v6b},
		Raw(make([]byte, 48)))
	add(&Ethernet{Dst: mac2, Src: mac1, Type: EtherTypeIPv6},
		&IPv6{NextHeader: IPProtocolTCP, HopLimit: 64, Src: v6a, Dst: v6b},
		&TCP{SrcPort: 40003, DstPort: 443, Seq: 9, Flags: TCPFlagSYN | TCPFlagACK, Src: v6a, Dst: v6b},
		Raw([]byte{0x17, 0x03}))
	// Truncated inner layers exercise the error paths.
	frames = append(frames, frames[1][:20], []byte{0x00}, nil)
	return frames
}

// packetsEqual compares the observable fields of two parse results.
func packetsEqual(t *testing.T, want, got *Packet) {
	t.Helper()
	if (want.Err == nil) != (got.Err == nil) {
		t.Fatalf("Err mismatch: want %v, got %v", want.Err, got.Err)
	}
	layers := func(p *Packet) []any {
		return []any{p.Ethernet, p.ARP, p.IPv4, p.IPv6, p.ICMPv4, p.ICMPv6, p.UDP, p.TCP}
	}
	w, g := layers(want), layers(got)
	for i := range w {
		if !reflect.DeepEqual(w[i], g[i]) {
			t.Fatalf("layer %T: want %+v, got %+v", w[i], w[i], g[i])
		}
	}
	if string(want.AppPayload) != string(got.AppPayload) {
		t.Fatalf("AppPayload: want %q, got %q", want.AppPayload, got.AppPayload)
	}
}

func TestDecoderMatchesParse(t *testing.T) {
	d := NewDecoder()
	for i, frame := range sampleFrames(t) {
		want := Parse(frame)
		got := d.Parse(frame)
		t.Logf("frame %d", i)
		packetsEqual(t, want, got)
	}
}

func TestDecoderParseIPMatchesParseIP(t *testing.T) {
	d := NewDecoder()
	for _, frame := range sampleFrames(t) {
		p := Parse(frame)
		if p.Ethernet == nil || p.Err != nil {
			continue
		}
		raw := p.Ethernet.PayloadData
		want := ParseIP(raw)
		got := d.ParseIP(raw)
		packetsEqual(t, want, got)
	}
}

// TestDecoderNoStaleState interleaves dissimilar frames so any field the
// Decoder failed to reset between calls would leak across.
func TestDecoderNoStaleState(t *testing.T) {
	frames := sampleFrames(t)
	d := NewDecoder()
	for round := 0; round < 3; round++ {
		for i := len(frames) - 1; i >= 0; i-- {
			want := Parse(frames[i])
			got := d.Parse(frames[i])
			packetsEqual(t, want, got)
			if want.Err == nil && want.IPv4 == nil && got.IPv4 != nil {
				t.Fatal("stale IPv4 pointer survived reset")
			}
		}
	}
}

func TestDecoderZeroAllocs(t *testing.T) {
	frames := sampleFrames(t)[:6] // well-formed only: error paths wrap with fmt.Errorf
	d := NewDecoder()
	avg := testing.AllocsPerRun(100, func() {
		for _, f := range frames {
			if p := d.Parse(f); p.Err != nil {
				t.Fatal(p.Err)
			}
		}
	})
	if avg != 0 {
		t.Fatalf("Decoder.Parse allocated %.1f times per run, want 0", avg)
	}
}
