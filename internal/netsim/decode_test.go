package netsim

import (
	"net/netip"
	"testing"
	"time"

	"v6lab/internal/packet"
)

// viewHost decodes every frame it is handed through its port and records
// the view, whether it was the switch's shared one, and the source address
// it read.
type viewHost struct {
	port   *Port
	views  []*packet.Packet
	shared []bool
	srcs   []netip.Addr
	// other, when set, is decoded after each delivered frame: a walk of a
	// slice that is not the delivery, which must leave the shared view be.
	other []byte
}

func (h *viewHost) HandleFrame(frame []byte) {
	p := h.port.Decode(frame)
	h.views = append(h.views, p)
	h.shared = append(h.shared, p == h.port.net.view)
	if p.IPv6 != nil {
		h.srcs = append(h.srcs, p.IPv6.Src)
	}
	if h.other != nil {
		h.port.Decode(h.other)
	}
}

// viewTap records the view the network hands a tap.
type viewTap struct {
	net   *Network
	views []*packet.Packet
}

func (t *viewTap) Add(_ time.Time, frame []byte) { t.views = append(t.views, t.net.Decode(frame)) }

// udp6Frame is an IPv6/UDP frame from src whose bytes depend on src alone:
// frames from different sources have the same length and different bytes.
func udp6Frame(dst, srcMAC packet.MAC, src netip.Addr) []byte {
	dstIP := netip.MustParseAddr("ff02::1")
	f, err := packet.Serialize(
		&packet.Ethernet{Dst: dst, Src: srcMAC, Type: packet.EtherTypeIPv6},
		&packet.IPv6{NextHeader: packet.IPProtocolUDP, HopLimit: 1, Src: src, Dst: dstIP},
		&packet.UDP{SrcPort: 5353, DstPort: 5353, Src: src, Dst: dstIP},
		packet.Raw("view"),
	)
	if err != nil {
		panic(err)
	}
	return f
}

var (
	allNodes = packet.MAC{0x33, 0x33, 0, 0, 0, 1}
	srcOne   = netip.MustParseAddr("fe80::1")
	srcTwo   = netip.MustParseAddr("fe80::2")
)

func newViewNet(hosts int) (*Network, []*viewHost, *viewTap) {
	n := NewNetwork(NewClock(time.Unix(1712300000, 0)))
	tap := &viewTap{net: n}
	n.AddTap(tap)
	hs := make([]*viewHost, hosts)
	for i := range hs {
		hs[i] = &viewHost{}
		hs[i].port = n.Attach(hs[i], packet.MAC{2, 0, 0, 0, 1, byte(i)})
	}
	return n, hs, tap
}

// TestSharedViewPerDelivery: one multicast delivery hands the tap and
// every receiving host the switch's one decoded *packet.Packet, and a
// host walking another slice meanwhile leaves that view intact.
func TestSharedViewPerDelivery(t *testing.T) {
	n, hs, tap := newViewNet(5)
	hs[2].other = udp6Frame(allNodes, hs[0].port.MAC, srcTwo)
	hs[0].port.Send(udp6Frame(allNodes, hs[0].port.MAC, srcOne))
	if _, err := n.Run(10); err != nil {
		t.Fatal(err)
	}
	if len(tap.views) != 1 {
		t.Fatalf("tap saw %d frames, want 1", len(tap.views))
	}
	view := tap.views[0]
	if view.IPv6 == nil || view.IPv6.Src != srcOne || view.UDP == nil {
		t.Fatalf("tap's view did not decode the frame: %+v", view)
	}
	if len(hs[0].views) != 0 {
		t.Error("the sender received its own frame")
	}
	for i, h := range hs[1:] {
		if len(h.views) != 1 || h.views[0] != view || !h.shared[0] {
			t.Errorf("host %d got views %p, want the tap's %p, the switch's shared view", i+1, h.views, view)
		}
		if len(h.srcs) != 1 || h.srcs[0] != srcOne {
			t.Errorf("host %d read sources %v, want [%v]", i+1, h.srcs, srcOne)
		}
	}
}

// TestViewNotReusedAcrossRuns: the arena is recycled when Run drains, so
// the next Run's first frame lands at the same address with the same
// length; it must still be decoded afresh.
func TestViewNotReusedAcrossRuns(t *testing.T) {
	n, hs, tap := newViewNet(2)
	var addrs []*byte
	for _, src := range []netip.Addr{srcOne, srcTwo} {
		hs[0].port.Send(udp6Frame(hs[1].port.MAC, hs[0].port.MAC, src))
		addrs = append(addrs, &n.queue[n.qhead].frame[0])
		if _, err := n.Run(10); err != nil {
			t.Fatal(err)
		}
	}
	if addrs[0] != addrs[1] {
		t.Fatal("the second Run's frame did not reuse the first's arena address; the test needs it to")
	}
	if got := hs[1].srcs; len(got) != 2 || got[0] != srcOne || got[1] != srcTwo {
		t.Errorf("host decoded sources %v, want [%v %v]", got, srcOne, srcTwo)
	}
	if len(tap.views) != 2 || tap.views[1].IPv6.Src != srcTwo {
		t.Errorf("tap's second view is not the second frame")
	}
}

// TestDecodeOutsideRunIsFresh: frames handed to HandleFrame directly, as
// tests and replays do, are walked fresh, so a reused buffer with new
// contents decodes to the new contents.
func TestDecodeOutsideRunIsFresh(t *testing.T) {
	_, hs, _ := newViewNet(1)
	h := hs[0]
	buf := udp6Frame(h.port.MAC, packet.MAC{2, 9, 9, 9, 9, 9}, srcOne)
	h.HandleFrame(buf)
	copy(buf, udp6Frame(h.port.MAC, packet.MAC{2, 9, 9, 9, 9, 9}, srcTwo))
	h.HandleFrame(buf)
	if got := h.srcs; len(got) != 2 || got[0] != srcOne || got[1] != srcTwo {
		t.Errorf("decoded sources %v, want [%v %v]", got, srcOne, srcTwo)
	}
}

// TestDuplicateRedeliveryDecodes: a duplicated frame delivered again after
// another frame decodes to its own contents both times.
func TestDuplicateRedeliveryDecodes(t *testing.T) {
	n, hs, _ := newViewNet(2)
	n.SetImpairment(&scriptedImpairment{verdicts: []Verdict{Duplicate}})
	hs[0].port.Send(udp6Frame(hs[1].port.MAC, hs[0].port.MAC, srcOne))
	hs[0].port.Send(udp6Frame(hs[1].port.MAC, hs[0].port.MAC, srcTwo))
	if _, err := n.Run(10); err != nil {
		t.Fatal(err)
	}
	want := []netip.Addr{srcOne, srcTwo, srcOne}
	if got := hs[1].srcs; len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("decoded sources %v, want %v", got, want)
	}
}

// TestDuplicateMACBothReceive: two ports sharing a MAC fall back to the
// exhaustive scan, so a unicast frame to that MAC reaches both.
func TestDuplicateMACBothReceive(t *testing.T) {
	n, a, b, _ := newTestNet()
	twin := &recordingHost{}
	twin.port = n.Attach(twin, macB)
	a.port.Send(frameTo(macB, macA, "twins"))
	if _, err := n.Run(10); err != nil {
		t.Fatal(err)
	}
	if len(b.received) != 1 || len(twin.received) != 1 {
		t.Errorf("ports sharing %v received %d and %d frames, want 1 each", macB, len(b.received), len(twin.received))
	}
}
