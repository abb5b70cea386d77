package device

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"testing"
	"time"

	"v6lab/internal/netsim"
	"v6lab/internal/packet"
	"v6lab/internal/router"
	"v6lab/internal/tlssim"
)

// materialisedPayload is the reference a flow's segments are checked
// against: its whole application payload, the TLS hello padded with 0x17
// to the flow's volume, or max(16, bytes) of 0x17 for a tiny flow that
// may skip the hello.
func materialisedPayload(name string, bytes int, needSNI bool) []byte {
	payload := tlssim.AppendClientHello(nil, name, nil)
	if bytes >= len(payload) || needSNI {
		for len(payload) < bytes {
			payload = append(payload, 0x17)
		}
		return payload
	}
	payload = make([]byte, max(16, bytes))
	for i := range payload {
		payload[i] = 0x17
	}
	return payload
}

// segmentLog records every TCP data segment put on the wire, and the IP
// packet of the last one.
type segmentLog struct {
	dec    packet.Decoder
	segs   []segment
	lastIP []byte
}

type segment struct {
	seq     uint32
	payload []byte
}

func (l *segmentLog) Add(_ time.Time, frame []byte) {
	p := l.dec.Parse(frame)
	if p.TCP != nil && len(p.TCP.PayloadData) > 0 {
		l.segs = append(l.segs, segment{p.TCP.Seq, append([]byte(nil), p.TCP.PayloadData...)})
		l.lastIP = append(l.lastIP[:0], p.Ethernet.PayloadData...)
	}
}

// take checks the logged segments against want — contiguous from seq,
// none longer than limit — and clears the log.
func (l *segmentLog) take(t *testing.T, when string, want []byte, seq uint32, limit int) {
	t.Helper()
	var got []byte
	for i, sg := range l.segs {
		if sg.seq != seq+uint32(len(got)) {
			t.Errorf("%s: segment %d seq = %d, want %d", when, i, sg.seq, seq+uint32(len(got)))
		}
		if len(sg.payload) > limit {
			t.Errorf("%s: segment %d carries %d bytes, limit %d", when, i, len(sg.payload), limit)
		}
		got = append(got, sg.payload...)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: %d segments carry %d bytes, differing from the %d-byte materialised payload", when, len(l.segs), len(got), len(want))
	}
	l.segs = l.segs[:0]
}

// TestSegmentsMatchMaterialisedPayload: the segments a flow sends are
// byte-equal to its materialised payload on every payload shape, both at
// the default segment limit and resegmented after a 1280-byte
// Packet-Too-Big.
func TestSegmentsMatchMaterialisedPayload(t *testing.T) {
	profiles := Registry()
	plans := BuildPlans(profiles)
	idx := -1
	for i, p := range profiles {
		if p.NDP && !p.SkipNDPInDualStack && !p.NoPMTUD {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatal("no PMTUD-capable dual-stack profile")
	}
	// The flow runs to the plan's first destination, whose hello the plan
	// carries.
	name := plans[idx].Specs[0].Name
	hello := len(tlssim.AppendClientHello(nil, name, nil))
	src := netip.MustParseAddr("2001:470:8:100::10")
	dst := netip.MustParseAddr("2606:4700:10::1")
	for _, tc := range []struct {
		label   string
		bytes   int
		needSNI bool
	}{
		{"bulk flow", 70000, false},
		{"tiny flow needing SNI", hello / 2, true},
		{"tiny flow", hello / 2, false},
	} {
		t.Run(tc.label, func(t *testing.T) {
			n := netsim.NewNetwork(netsim.NewClock(time.Date(2024, 4, 5, 0, 0, 0, 0, time.UTC)))
			st := NewStack(profiles[idx], plans[idx], idx, NetPrefixes{GUA: router.GUAPrefix, ULA: router.ULAPrefix})
			st.Attach(n)
			st.Reset(ModeDual, 0)
			st.guas = append(st.guas, src)
			log := &segmentLog{}
			n.AddTap(log)

			const sport = 40001
			key := connKey{dst: dst, sport: sport}
			st.conns[key] = &conn{specIdx: 0, src: src, dst: dst, dport: 443, bytes: tc.bytes, seq: 1, needSNI: tc.needSNI}
			synAck, err := packet.Serialize(
				&packet.Ethernet{Dst: st.MAC, Src: router.RouterMAC, Type: packet.EtherTypeIPv6},
				&packet.IPv6{NextHeader: packet.IPProtocolTCP, HopLimit: 64, Src: dst, Dst: src},
				&packet.TCP{SrcPort: 443, DstPort: sport, Seq: 9000, Ack: 2, Flags: packet.TCPFlagSYN | packet.TCPFlagACK, Src: dst, Dst: src},
			)
			if err != nil {
				t.Fatal(err)
			}
			st.HandleFrame(synAck)
			if _, err := n.Run(1 << 10); err != nil {
				t.Fatal(err)
			}
			want := materialisedPayload(name, tc.bytes, tc.needSNI)
			if len(log.segs) == 0 {
				t.Fatal("no data segments sent")
			}
			invoking := log.lastIP
			log.take(t, "first send", want, 2, 32000)

			// A 1280-byte clamp: the stack resegments to 1220-byte
			// segments from the same starting sequence number.
			body := make([]byte, 4, 4+len(invoking))
			binary.BigEndian.PutUint32(body, 1280)
			body = append(body, invoking[:min(len(invoking), 1232)]...)
			ptb, err := packet.Serialize(
				&packet.Ethernet{Dst: st.MAC, Src: router.RouterMAC, Type: packet.EtherTypeIPv6},
				&packet.IPv6{NextHeader: packet.IPProtocolICMPv6, HopLimit: 64, Src: router.RouterLLA, Dst: src},
				&packet.ICMPv6{Type: packet.ICMPv6TypePacketTooBig, Body: body, Src: router.RouterLLA, Dst: src},
			)
			if err != nil {
				t.Fatal(err)
			}
			st.HandleFrame(ptb)
			if _, err := n.Run(1 << 10); err != nil {
				t.Fatal(err)
			}
			if st.Retransmits() != 1 {
				t.Fatalf("retransmits = %d, want 1 after the Packet-Too-Big", st.Retransmits())
			}
			log.take(t, "after Packet-Too-Big", want, 2, 1280-60)
		})
	}
}
