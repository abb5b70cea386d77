package experiment

import (
	"context"
	"sync"
	"testing"

	"v6lab/internal/dhcp6"
	"v6lab/internal/dnsmsg"
	"v6lab/internal/packet"
	"v6lab/internal/world"
)

var (
	studyOnce sync.Once
	studyVal  *Study
	studyErr  error
)

// fullStudy runs the whole study once for this package's tests.
func fullStudy(t *testing.T) *Study {
	t.Helper()
	studyOnce.Do(func() {
		studyVal = NewStudyWith(StudyOptions{World: world.Build(nil)})
		studyErr = studyVal.RunAllContext(context.Background())
	})
	if studyErr != nil {
		t.Fatal(studyErr)
	}
	return studyVal
}

// runResult returns the study's run of the given experiment, or nil.
func runResult(st *Study, id string) *RunResult {
	for _, r := range st.Results {
		if r.Config.ID == id {
			return r
		}
	}
	return nil
}

// TestWireIntegrity checks every captured frame: parseable Ethernet, valid
// IP version fields, and verifying transport checksums — the testbed must
// emit RFC-correct packets, not just plausible ones.
func TestWireIntegrity(t *testing.T) {
	st := fullStudy(t)
	frames, badChecksum, parseErrors := 0, 0, 0
	for _, res := range st.Results {
		for _, rec := range res.Capture.Records {
			frames++
			p := packet.Parse(rec.Data)
			if p.Err != nil {
				parseErrors++
				continue
			}
			if p.ICMPv6 != nil && p.IPv6 != nil {
				if !p.ICMPv6.VerifyChecksum(p.IPv6.Src, p.IPv6.Dst) {
					badChecksum++
				}
			}
			if p.UDP != nil && p.IPv6 != nil {
				if !verifySegment(p.Ethernet.PayloadData[40:], p, packet.IPProtocolUDP, 6) {
					badChecksum++
				}
			}
			if p.TCP != nil && p.IPv6 != nil {
				if !verifySegment(p.Ethernet.PayloadData[40:], p, packet.IPProtocolTCP, 16) {
					badChecksum++
				}
			}
		}
	}
	if frames < 10000 {
		t.Errorf("only %d frames captured across the study", frames)
	}
	if parseErrors > 0 {
		t.Errorf("%d unparseable frames", parseErrors)
	}
	if badChecksum > 0 {
		t.Errorf("%d bad transport checksums", badChecksum)
	}
	t.Logf("verified %d frames", frames)
}

// verifySegment recomputes a v6 transport checksum over the raw segment.
func verifySegment(seg []byte, p *packet.Packet, proto packet.IPProtocol, ckOff int) bool {
	if len(seg) < ckOff+2 {
		return false
	}
	cp := append([]byte(nil), seg...)
	wire := uint16(cp[ckOff])<<8 | uint16(cp[ckOff+1])
	cp[ckOff], cp[ckOff+1] = 0, 0
	got := packet.TransportChecksum(p.IPv6.Src, p.IPv6.Dst, uint8(proto), cp)
	if got == 0 && proto == packet.IPProtocolUDP {
		got = 0xffff
	}
	return got == wire
}

// TestRDNSSOnlyVariantMechanism verifies the §5.2.1 Vizio finding: the TV
// resolves names in the baseline IPv6-only run (DNS via DHCPv6) but not in
// the RDNSS-only variant.
func TestRDNSSOnlyVariantMechanism(t *testing.T) {
	st := fullStudy(t)
	countViz := func(expID string) int {
		res := runResult(st, expID)
		if res == nil {
			t.Fatalf("no result for %s", expID)
		}
		var mac packet.MAC
		for m, p := range st.World.MACToDevice {
			if p.Name == "Vizio TV" {
				mac = m
			}
		}
		n := 0
		for _, rec := range res.Capture.Records {
			p := packet.Parse(rec.Data)
			if p.Ethernet == nil || p.Ethernet.Src != mac {
				continue
			}
			if p.UDP != nil && p.UDP.DstPort == 53 {
				n++
			}
		}
		return n
	}
	if n := countViz("ipv6-only"); n == 0 {
		t.Error("Vizio TV sent no DNS in the baseline IPv6-only run")
	}
	if n := countViz("ipv6-only-rdnss"); n != 0 {
		t.Errorf("Vizio TV sent %d DNS queries in the RDNSS-only run (needs DHCPv6)", n)
	}
}

// TestStatefulVariantLeases verifies the stateful runs hand out IA_NA
// leases to exactly the DHCPv6-capable devices, and that only the four
// known devices source traffic from them.
func TestStatefulVariantLeases(t *testing.T) {
	st := fullStudy(t)
	res := runResult(st, "ipv6-only-stateful")
	leaseHolders := map[packet.MAC]bool{}
	for _, rec := range res.Capture.Records {
		p := packet.Parse(rec.Data)
		if p.UDP == nil || p.UDP.SrcPort != 547 {
			continue
		}
		m, err := dhcp6.Unmarshal(p.UDP.PayloadData)
		if err != nil || m.Type != dhcp6.Reply || m.IANA == nil || len(m.IANA.Addrs) == 0 {
			continue
		}
		leaseHolders[p.Ethernet.Dst] = true
	}
	if got := len(leaseHolders); got != 12 {
		t.Errorf("IA_NA lease holders = %d, want 12 (Table 5's stateful DHCPv6 devices)", got)
	}
}

// TestEufySkipsV6InDualStack verifies the Table 4 NDP regression: Eufy Hub
// emits NDP in IPv6-only but nothing at all over IPv6 in dual-stack.
func TestEufySkipsV6InDualStack(t *testing.T) {
	st := fullStudy(t)
	var mac packet.MAC
	for m, p := range st.World.MACToDevice {
		if p.Name == "Eufy Hub" {
			mac = m
		}
	}
	countV6 := func(expID string) int {
		n := 0
		for _, rec := range runResult(st, expID).Capture.Records {
			p := packet.Parse(rec.Data)
			if p.Ethernet != nil && p.Ethernet.Src == mac && p.IPv6 != nil {
				n++
			}
		}
		return n
	}
	if countV6("ipv6-only") == 0 {
		t.Error("Eufy emitted no IPv6 in the IPv6-only run")
	}
	if n := countV6("dual-stack"); n != 0 {
		t.Errorf("Eufy emitted %d IPv6 frames in dual-stack (should skip)", n)
	}
}

// TestActiveDNSCoversAllDomains ensures the §4.3 active experiment covers
// the whole destination universe.
func TestActiveDNSCoversAllDomains(t *testing.T) {
	st := fullStudy(t)
	for _, pl := range st.World.Plans {
		for _, sp := range pl.Specs {
			if _, ok := st.ActiveDNS[sp.Name]; !ok {
				t.Fatalf("active DNS missing %s", sp.Name)
			}
		}
	}
	if len(st.ActiveDNS) < 2000 {
		t.Errorf("active DNS covered only %d domains", len(st.ActiveDNS))
	}
}

// TestDNSQueryNamesResolveInCloud: every name devices query is registered
// in the simulated Internet (no dangling destinations).
func TestDNSQueryNamesResolveInCloud(t *testing.T) {
	st := fullStudy(t)
	missing := map[string]bool{}
	for _, res := range st.Results {
		for _, rec := range res.Capture.Records {
			p := packet.Parse(rec.Data)
			if p.UDP == nil || p.UDP.DstPort != 53 {
				continue
			}
			m, err := dnsmsg.Unpack(p.UDP.PayloadData)
			if err != nil || m.Response || len(m.Questions) == 0 {
				continue
			}
			name := m.Questions[0].Name
			if st.Cloud.Lookup(name) == nil {
				missing[name] = true
			}
		}
	}
	if len(missing) > 0 {
		t.Errorf("%d queried names missing from the cloud registry: %v", len(missing), firstN(missing, 5))
	}
}

func firstN(m map[string]bool, n int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
		if len(out) == n {
			break
		}
	}
	return out
}
