package netsim

import (
	"bytes"
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"v6lab/internal/packet"
	"v6lab/internal/pcapio"
)

type recordingHost struct {
	port     *Port
	received [][]byte
	// echoTo, when set, retransmits every received frame once (loop test).
	echo bool
}

func (h *recordingHost) HandleFrame(frame []byte) {
	h.received = append(h.received, append([]byte(nil), frame...))
	if h.echo && len(frame) >= 12 {
		// Bounce the frame back to its sender.
		reply := append([]byte(nil), frame...)
		copy(reply[0:6], frame[6:12])
		copy(reply[6:12], h.port.MAC[:])
		h.port.Send(reply)
	}
}

func frameTo(dst, src packet.MAC, payload string) []byte {
	f, err := packet.Serialize(&packet.Ethernet{Dst: dst, Src: src, Type: packet.EtherTypeIPv4}, packet.Raw(payload))
	if err != nil {
		panic(err)
	}
	return f
}

var (
	macA = packet.MAC{2, 0, 0, 0, 0, 1}
	macB = packet.MAC{2, 0, 0, 0, 0, 2}
	macC = packet.MAC{2, 0, 0, 0, 0, 3}
)

func newTestNet() (*Network, *recordingHost, *recordingHost, *recordingHost) {
	n := NewNetwork(NewClock(time.Unix(1712300000, 0)))
	a, b, c := &recordingHost{}, &recordingHost{}, &recordingHost{}
	a.port = n.Attach(a, macA)
	b.port = n.Attach(b, macB)
	c.port = n.Attach(c, macC)
	return n, a, b, c
}

func TestUnicastDelivery(t *testing.T) {
	n, a, b, c := newTestNet()
	a.port.Send(frameTo(macB, macA, "hi"))
	if _, err := n.Run(100); err != nil {
		t.Fatal(err)
	}
	if len(b.received) != 1 {
		t.Errorf("b received %d frames", len(b.received))
	}
	if len(c.received) != 0 || len(a.received) != 0 {
		t.Error("unicast leaked to other hosts")
	}
}

func TestBroadcastAndMulticastDelivery(t *testing.T) {
	n, a, b, c := newTestNet()
	a.port.Send(frameTo(packet.BroadcastMAC, macA, "bc"))
	a.port.Send(frameTo(packet.MAC{0x33, 0x33, 0, 0, 0, 1}, macA, "mc"))
	if _, err := n.Run(100); err != nil {
		t.Fatal(err)
	}
	if len(b.received) != 2 || len(c.received) != 2 {
		t.Errorf("b=%d c=%d", len(b.received), len(c.received))
	}
	if len(a.received) != 0 {
		t.Error("sender received its own frame")
	}
}

func TestPromiscuousPortSeesAll(t *testing.T) {
	n, a, _, _ := newTestNet()
	sniffer := &recordingHost{}
	p := n.Attach(sniffer, packet.MAC{2, 9, 9, 9, 9, 9})
	p.Promiscuous = true
	a.port.Send(frameTo(macB, macA, "x"))
	if _, err := n.Run(100); err != nil {
		t.Fatal(err)
	}
	if len(sniffer.received) != 1 {
		t.Errorf("sniffer got %d", len(sniffer.received))
	}
}

func TestTapCapturesEverythingWithTimestamps(t *testing.T) {
	n, a, _, _ := newTestNet()
	var cap pcapio.Capture
	n.AddTap(&cap)
	start := n.Clock.Now()
	a.port.Send(frameTo(macB, macA, "one"))
	a.port.Send(frameTo(macC, macA, "two"))
	if _, err := n.Run(100); err != nil {
		t.Fatal(err)
	}
	if cap.Len() != 2 {
		t.Fatalf("captured %d", cap.Len())
	}
	if !cap.Records[1].Time.After(cap.Records[0].Time) || !cap.Records[0].Time.After(start) {
		t.Error("timestamps not monotonically advancing")
	}
}

func TestFrameBudgetStopsLoops(t *testing.T) {
	n, a, b, _ := newTestNet()
	a.echo, b.echo = true, true
	a.port.Send(frameTo(macB, macA, "ping"))
	if _, err := n.Run(50); err == nil {
		t.Fatal("want budget-exhausted error")
	}
}

func TestHandlersCanChainTraffic(t *testing.T) {
	n, a, b, _ := newTestNet()
	b.echo = true // b re-broadcasts to a's address? it echoes same frame (dst macB), so no re-delivery to b
	a.port.Send(frameTo(macB, macA, "req"))
	delivered, err := n.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 2 {
		t.Errorf("delivered %d frames, want 2 (original + echo)", delivered)
	}
	if n.Delivered() != 2 {
		t.Errorf("Delivered() = %d", n.Delivered())
	}
}

func TestClock(t *testing.T) {
	c := NewClock(time.Unix(0, 0))
	c.Advance(time.Second)
	c.Advance(-time.Hour)
	if c.Now() != time.Unix(1, 0) {
		t.Errorf("clock = %v", c.Now())
	}
}

func TestSendCopiesFrame(t *testing.T) {
	n, a, b, _ := newTestNet()
	f := frameTo(macB, macA, "orig")
	a.port.Send(f)
	f[14] = 'X'
	if _, err := n.Run(10); err != nil {
		t.Fatal(err)
	}
	if string(b.received[0][14:]) != "orig" {
		t.Error("frame aliased sender buffer")
	}
}

// TestArenaRecycledAtQuiescence pins the frame lifetime: the arena lives
// for one drain, so repeated send/Run rounds reuse the first round's
// chunks; frames an impairment requeues stay intact until delivered; and
// a Run that exhausts its budget keeps the arena its queued frames live in.
func TestArenaRecycledAtQuiescence(t *testing.T) {
	payload := func(round, i int) string {
		return fmt.Sprintf("r%03d-f%03d-%s", round, i, strings.Repeat("x", 900))
	}
	t.Run("bounded", func(t *testing.T) {
		n, a, b, _ := newTestNet()
		var first int
		for round := 0; round < 50; round++ {
			for i := 0; i < 1500; i++ { // ~1.4 MB: more than one 1 MiB chunk
				a.port.Send(frameTo(macB, macA, payload(round, i)))
			}
			if _, err := n.Run(2000); err != nil {
				t.Fatal(err)
			}
			if round == 0 {
				first = n.arena.Chunks()
			}
		}
		if first < 2 {
			t.Fatalf("one round filled %d chunks, want a rollover", first)
		}
		if got := n.arena.Chunks(); got != first {
			t.Errorf("arena holds %d chunks after 50 rounds, %d after the first", got, first)
		}
		if len(b.received) != 50*1500 || string(b.received[len(b.received)-1][14:]) != payload(49, 1499) {
			t.Errorf("b received %d frames", len(b.received))
		}
	})
	t.Run("requeued frames intact", func(t *testing.T) {
		n, a, b, _ := newTestNet()
		for round := 0; round < 3; round++ {
			// Frame 0 is deferred past the rest, frame 1 duplicated; both
			// sit in the arena while later frames roll it to new chunks.
			n.SetImpairment(&scriptedImpairment{verdicts: []Verdict{Defer, Duplicate}})
			b.received = b.received[:0]
			for i := 0; i < 1500; i++ {
				a.port.Send(frameTo(macB, macA, payload(round, i)))
			}
			if _, err := n.Run(2000); err != nil {
				t.Fatal(err)
			}
			if len(b.received) != 1501 {
				t.Fatalf("round %d: b received %d frames, want 1501", round, len(b.received))
			}
			if got := string(b.received[1499][14:]); got != payload(round, 0) {
				t.Errorf("round %d: deferred frame delivered as %.12q", round, got)
			}
			if got := string(b.received[1500][14:]); got != payload(round, 1) {
				t.Errorf("round %d: duplicate delivered as %.12q", round, got)
			}
		}
	})
	t.Run("budget exhausted keeps arena", func(t *testing.T) {
		n, a, b, _ := newTestNet()
		for i := 0; i < 5; i++ {
			a.port.Send(frameTo(macB, macA, payload(0, i)))
		}
		if _, err := n.Run(2); err == nil {
			t.Fatal("want budget-exhausted error")
		}
		// Were the arena recycled, these copies would land on the bytes
		// of the three frames still queued.
		var want []string
		for i := 0; i < 5; i++ {
			want = append(want, payload(0, i))
		}
		for i := 0; i < 5; i++ {
			a.port.Send(frameTo(macB, macA, payload(1, i)))
			want = append(want, payload(1, i))
		}
		if _, err := n.Run(100); err != nil {
			t.Fatal(err)
		}
		if len(b.received) != len(want) {
			t.Fatalf("b received %d frames, want %d", len(b.received), len(want))
		}
		for i, w := range want {
			if got := string(b.received[i][14:]); got != w {
				t.Errorf("frame %d = %.12q, want %.12q", i, got, w)
			}
		}
	})
}

// TestTransmitBuildsInArena: Transmit builds each frame in place in the
// switch's arena. With a small chunk size, frames stay intact across later
// Transmits and across a chunk spill, each is cap-clipped, Send copies its
// source, and a 32,000-byte segment costs no allocation per drain once the
// arena has grown.
func TestTransmitBuildsInArena(t *testing.T) {
	n, a, b, _ := newTestNet()
	n.arena.ChunkSize = 256
	src, dst := netip.MustParseAddr("2001:db8::1"), netip.MustParseAddr("2001:db8::2")
	segment := func(seq uint32, size int) []packet.SerializableLayer {
		return []packet.SerializableLayer{
			&packet.Ethernet{Dst: macB, Src: macA, Type: packet.EtherTypeIPv6},
			&packet.IPv6{NextHeader: packet.IPProtocolTCP, Src: src, Dst: dst},
			&packet.TCP{SrcPort: 40000, DstPort: 443, Seq: seq, Flags: packet.TCPFlagACK, Src: src, Dst: dst},
			&packet.Fill{Prefix: []byte("hello"), Byte: 0x17, N: size},
		}
	}
	var want [][]byte
	for i, size := range []int{10, 100, 60, 1000, 5} { // the 1000-byte one spills
		layers := segment(uint32(i), size)
		w, err := packet.Serialize(layers...)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, w)
		if err := a.port.Transmit(layers...); err != nil {
			t.Fatal(err)
		}
	}
	sent := []byte("copied by Send")
	a.port.Send(frameTo(macB, macA, string(sent)))
	want = append(want, frameTo(macB, macA, string(sent)))
	if n.arena.Chunks() < 2 {
		t.Fatalf("arena holds %d chunks, want a spill", n.arena.Chunks())
	}
	for i, q := range n.queue {
		if !bytes.Equal(q.frame, want[i]) {
			t.Errorf("queued frame %d differs from Serialize:\n got %x\nwant %x", i, q.frame, want[i])
		}
		if cap(q.frame) != len(q.frame) {
			t.Errorf("queued frame %d has cap %d beyond its %d bytes", i, cap(q.frame), len(q.frame))
		}
	}
	f := frameTo(macB, macA, "orig")
	a.port.Send(f)
	f[14] = 'X'
	if _, err := n.Run(100); err != nil {
		t.Fatal(err)
	}
	if got := b.received[len(b.received)-1]; string(got[14:]) != "orig" {
		t.Errorf("Send aliased its source: %q", got[14:])
	}

	bulk := segment(0, 32000)
	sink := &sinkHost{}
	macD := packet.MAC{2, 0, 0, 0, 0, 4}
	n.Attach(sink, macD)
	bulk[0] = &packet.Ethernet{Dst: macD, Src: macA, Type: packet.EtherTypeIPv6}
	round := func() {
		a.port.Transmit(bulk...)
		if _, err := n.Run(10); err != nil {
			t.Fatal(err)
		}
	}
	round()
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Errorf("a 32,000-byte segment allocates %.1f times per drain, want 0", allocs)
	}
	if sink.n != 22 { // AllocsPerRun adds a warm-up round
		t.Errorf("sink received %d bulk segments, want 22", sink.n)
	}
}
