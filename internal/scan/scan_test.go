package scan

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"v6lab/internal/addr"
	"v6lab/internal/netsim"
	"v6lab/internal/packet"
)

// fakeDevice is a minimal scan target: one v4 and one v6 address, distinct
// open-port sets per family.
type fakeDevice struct {
	port   *netsim.Port
	mac    packet.MAC
	v4     netip.Addr
	v6     netip.Addr
	openV4 map[uint16]bool
	openV6 map[uint16]bool
}

func (d *fakeDevice) HandleFrame(frame []byte) {
	p := packet.Parse(frame)
	if p.Err != nil || p.Ethernet == nil {
		return
	}
	reply := func(layers ...packet.SerializableLayer) {
		f, err := packet.Serialize(layers...)
		if err == nil {
			d.port.Send(f)
		}
	}
	switch {
	case p.ICMPv6 != nil && p.ICMPv6.Type == packet.ICMPv6TypeEchoRequest:
		reply(
			&packet.Ethernet{Dst: p.Ethernet.Src, Src: d.mac, Type: packet.EtherTypeIPv6},
			&packet.IPv6{NextHeader: packet.IPProtocolICMPv6, HopLimit: 64, Src: d.v6, Dst: p.IPv6.Src},
			&packet.ICMPv6{Type: packet.ICMPv6TypeEchoReply, Body: p.ICMPv6.Body, Src: d.v6, Dst: p.IPv6.Src})
	case p.TCP != nil && p.TCP.HasFlag(packet.TCPFlagSYN):
		open := d.openV4
		var ipL packet.SerializableLayer
		typ := packet.EtherTypeIPv4
		src := p.DstIP()
		if p.IsIPv6() {
			open = d.openV6
			ipL = &packet.IPv6{NextHeader: packet.IPProtocolTCP, Src: src, Dst: p.SrcIP()}
			typ = packet.EtherTypeIPv6
		} else {
			ipL = &packet.IPv4{Protocol: packet.IPProtocolTCP, Src: src, Dst: p.SrcIP()}
		}
		flags := packet.TCPFlagRST | packet.TCPFlagACK
		if open[p.TCP.DstPort] {
			flags = packet.TCPFlagSYN | packet.TCPFlagACK
		}
		reply(
			&packet.Ethernet{Dst: p.Ethernet.Src, Src: d.mac, Type: typ},
			ipL,
			&packet.TCP{SrcPort: p.TCP.DstPort, DstPort: p.TCP.SrcPort, Seq: 1, Ack: p.TCP.Seq + 1,
				Flags: flags, Src: src, Dst: p.SrcIP()})
	case p.UDP != nil && p.IsIPv6():
		if d.openV6[p.UDP.DstPort] {
			return // open|filtered: silence
		}
		body := append(make([]byte, 4), p.Ethernet.PayloadData...)
		reply(
			&packet.Ethernet{Dst: p.Ethernet.Src, Src: d.mac, Type: packet.EtherTypeIPv6},
			&packet.IPv6{NextHeader: packet.IPProtocolICMPv6, HopLimit: 64, Src: d.v6, Dst: p.IPv6.Src},
			&packet.ICMPv6{Type: packet.ICMPv6TypeDestUnreachable, Code: 4, Body: body, Src: d.v6, Dst: p.IPv6.Src})
	}
}

func setupScan(t *testing.T) (*netsim.Network, *Scanner, *fakeDevice) {
	t.Helper()
	n := netsim.NewNetwork(netsim.NewClock(time.Unix(1712000000, 0)))
	sc := New()
	sc.Attach(n)
	dev := &fakeDevice{
		mac:    packet.MAC{2, 1, 2, 3, 4, 5},
		v4:     netip.MustParseAddr("192.168.1.80"),
		v6:     addr.LinkLocalEUI64(packet.MAC{2, 1, 2, 3, 4, 5}),
		openV4: map[uint16]bool{80: true, 8080: true},
		openV6: map[uint16]bool{80: true, 37993: true},
	}
	dev.port = n.Attach(dev, dev.mac)
	return n, sc, dev
}

func TestDiscoverV6(t *testing.T) {
	n, sc, dev := setupScan(t)
	live, err := sc.DiscoverV6(n)
	if err != nil {
		t.Fatal(err)
	}
	if mac, ok := live[dev.v6]; !ok || mac != dev.mac {
		t.Fatalf("discovery: %v", live)
	}
}

func TestTCPScanBothFamilies(t *testing.T) {
	n, sc, dev := setupScan(t)
	ports := []uint16{22, 80, 8080, 37993}
	openV4, err := sc.TCPScan(n, dev.v4, dev.mac, ports)
	if err != nil {
		t.Fatal(err)
	}
	if len(openV4) != 2 || openV4[0] != 80 || openV4[1] != 8080 {
		t.Errorf("v4 open = %v", openV4)
	}
	openV6, err := sc.TCPScan(n, dev.v6, dev.mac, ports)
	if err != nil {
		t.Fatal(err)
	}
	if len(openV6) != 2 || openV6[0] != 80 || openV6[1] != 37993 {
		t.Errorf("v6 open = %v", openV6)
	}
}

func TestUDPScanSemantics(t *testing.T) {
	n, sc, dev := setupScan(t)
	got, err := sc.UDPScan(n, dev.v6, dev.mac, []uint16{53, 80})
	if err != nil {
		t.Fatal(err)
	}
	// 80 is open (silence => open|filtered); 53 closed => unreachable.
	if len(got) != 1 || got[0] != 80 {
		t.Errorf("udp open|filtered = %v", got)
	}
}

func TestScanEmptyNetwork(t *testing.T) {
	n := netsim.NewNetwork(netsim.NewClock(time.Unix(0, 0)))
	sc := New()
	sc.Attach(n)
	live, err := sc.DiscoverV6(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(live) != 0 {
		t.Errorf("found %v on empty network", live)
	}
	open, err := sc.TCPScan(n, netip.MustParseAddr("fe80::dead"), packet.MAC{2, 9, 9, 9, 9, 9}, []uint16{80})
	if err != nil {
		t.Fatal(err)
	}
	if len(open) != 0 {
		t.Errorf("open ports on absent host: %v", open)
	}
}

// TestSYNv6 builds the same bytes as serializing the probe's layers afresh,
// and a probe loop's builder allocates nothing per SYN.
func TestSYNv6(t *testing.T) {
	src, dst := netip.MustParseAddr("2001:db8:ffff::5ca9"), netip.MustParseAddr("2001:db8::42")
	var syn SYNv6
	for i, dport := range []uint16{22, 443, 8080} {
		got, err := syn.Build(src, dst, uint16(40000+i), dport, 9)
		if err != nil {
			t.Fatal(err)
		}
		want, err := packet.Serialize(
			&packet.IPv6{NextHeader: packet.IPProtocolTCP, HopLimit: 64, Src: src, Dst: dst},
			&packet.TCP{SrcPort: uint16(40000 + i), DstPort: dport, Seq: 9, Flags: packet.TCPFlagSYN, Src: src, Dst: dst})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("probe %d:\n got %x\nwant %x", i, got, want)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := syn.Build(src, dst, 40000, 443, 9); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Build allocates %.1f times per SYN, want 0", allocs)
	}
}
