package main

import (
	"bytes"
	"net/netip"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"v6lab/internal/dnsmsg"
	"v6lab/internal/packet"
	"v6lab/internal/pcapio"
)

var (
	macA = packet.MAC{0x02, 0x11, 0x22, 0x33, 0x44, 0x55}
	macB = packet.MAC{0x02, 0xaa, 0xbb, 0xcc, 0xdd, 0xee}
	ip4A = netip.MustParseAddr("192.168.1.10")
	ip4B = netip.MustParseAddr("192.168.1.1")
	ip6A = netip.MustParseAddr("2001:db8::10")
	ip6B = netip.MustParseAddr("2001:db8::1")
)

// writeTestCapture builds a five-frame pcap: one ARP request, one ICMPv6
// neighbor solicitation, two DNS queries (same name twice), and one IPv6
// TCP segment.
func writeTestCapture(t *testing.T, path string) {
	t.Helper()
	serialize := func(layers ...packet.SerializableLayer) []byte {
		raw, err := packet.Serialize(layers...)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	arp := serialize(
		&packet.Ethernet{Dst: packet.BroadcastMAC, Src: macA, Type: packet.EtherTypeARP},
		&packet.ARP{Op: packet.ARPRequest, SenderMAC: macA, SenderIP: ip4A, TargetIP: ip4B},
	)
	ns := serialize(
		&packet.Ethernet{Dst: macB, Src: macA, Type: packet.EtherTypeIPv6},
		&packet.IPv6{NextHeader: packet.IPProtocolICMPv6, HopLimit: 255, Src: ip6A, Dst: ip6B},
		&packet.ICMPv6{Type: 135, Body: make([]byte, 20), Src: ip6A, Dst: ip6B},
	)
	query, err := (&dnsmsg.Message{ID: 7, RecursionDesired: true,
		Questions: []dnsmsg.Question{{Name: "cloud.example.com", Type: dnsmsg.TypeAAAA}}}).Pack()
	if err != nil {
		t.Fatal(err)
	}
	dns := serialize(
		&packet.Ethernet{Dst: macB, Src: macA, Type: packet.EtherTypeIPv4},
		&packet.IPv4{Protocol: packet.IPProtocolUDP, TTL: 64, Src: ip4A, Dst: ip4B},
		&packet.UDP{SrcPort: 5000, DstPort: 53, Src: ip4A, Dst: ip4B},
		packet.Raw(query),
	)
	tcp := serialize(
		&packet.Ethernet{Dst: macB, Src: macA, Type: packet.EtherTypeIPv6},
		&packet.IPv6{NextHeader: packet.IPProtocolTCP, HopLimit: 64, Src: ip6A, Dst: ip6B},
		&packet.TCP{SrcPort: 40000, DstPort: 443, Flags: packet.TCPFlagSYN, Src: ip6A, Dst: ip6B},
	)

	start := time.Date(2024, 4, 5, 9, 0, 0, 0, time.UTC)
	var recs []pcapio.Record
	for i, data := range [][]byte{arp, ns, dns, dns, tcp} {
		recs = append(recs, pcapio.Record{Time: start.Add(time.Duration(i) * time.Millisecond), Data: data})
	}
	if err := pcapio.WriteFile(path, recs); err != nil {
		t.Fatal(err)
	}
}

func TestRunSummary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tiny.pcap")
	writeTestCapture(t, path)

	var stdout, stderr bytes.Buffer
	if code := run([]string{path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, line := range []string{
		": 5 frames, ",
		"arp                 1",
		"dns                 2",
		"icmpv6/135          1",
		"tcp                 1",
		"distinct talkers: 1, distinct query names: 1",
	} {
		if !strings.Contains(out, line) {
			t.Errorf("summary missing %q:\n%s", line, out)
		}
	}
	if stderr.Len() != 0 {
		t.Errorf("unexpected stderr: %s", stderr.String())
	}
}

func TestRunVerbose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tiny.pcap")
	writeTestCapture(t, path)

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-v", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	var frameLines int
	for _, l := range lines {
		if strings.Contains(l, " -> ") && strings.Contains(l, "len=") {
			frameLines++
		}
	}
	if frameLines != 5 {
		t.Errorf("verbose mode printed %d frame lines, want 5:\n%s", frameLines, stdout.String())
	}
	if !strings.Contains(stdout.String(), "2001:db8::10 -> 2001:db8::1") {
		t.Errorf("verbose lines missing IPv6 addresses:\n%s", stdout.String())
	}
}

func TestRunErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "usage:") {
		t.Errorf("no usage message: %s", stderr.String())
	}

	stderr.Reset()
	if code := run([]string{"-nope"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}

	stderr.Reset()
	if code := run([]string{filepath.Join(t.TempDir(), "missing.pcap")}, &stdout, &stderr); code != 1 {
		t.Errorf("missing file: exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "error:") {
		t.Errorf("missing error message: %s", stderr.String())
	}
}
