package faults

import (
	"testing"
	"time"

	"v6lab/internal/netsim"
	"v6lab/internal/splitmix"
)

func TestPRNGIsDeterministicAndPlatformStable(t *testing.T) {
	// Pin the first splitmix64 outputs for seed 1: any change to the
	// sequence silently changes every impaired pcap.
	r := splitmix.New(1)
	want := []uint64{0x910a2dec89025cc1, 0xbeeb8da1658eec67, 0xf893a2eefb32555e}
	for i, w := range want {
		if got := r.Uint64(); got != w {
			t.Fatalf("Uint64()[%d] = %#x, want %#x", i, got, w)
		}
	}
	a, b := splitmix.New(42), splitmix.New(42)
	for i := 0; i < 1000; i++ {
		if a.Intn(1000) != b.Intn(1000) {
			t.Fatalf("same-seed sequences diverged at draw %d", i)
		}
	}
}

func TestSubSeedVariesByScopeNotByCall(t *testing.T) {
	if SubSeed(1, "ipv6-only") == SubSeed(1, "dual-stack") {
		t.Error("different scopes must derive different sub-seeds")
	}
	if SubSeed(1, "ipv6-only") != SubSeed(1, "ipv6-only") {
		t.Error("SubSeed must be a pure function")
	}
	if SubSeed(1, "ipv6-only") == SubSeed(2, "ipv6-only") {
		t.Error("different base seeds must derive different sub-seeds")
	}
}

func TestActive(t *testing.T) {
	if Clean().Active() {
		t.Error("Clean must be inactive")
	}
	if (Profile{}).Active() {
		t.Error("zero profile must be inactive")
	}
	for _, p := range []Profile{LossyWiFi(), ClampedTunnel(), FlakyDNSMasq(),
		{Blackouts: []Window{{From: 0, To: time.Second}}}} {
		if !p.Active() {
			t.Errorf("%q must be active", p.Name)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"clean", "lossy-wifi", "clamped-tunnel", "flaky-dnsmasq"} {
		p, err := ByName(name)
		if err != nil || p.Name != name {
			t.Errorf("ByName(%q) = %v, %v", name, p.Name, err)
		}
	}
	if _, err := ByName("solar-flare"); err == nil {
		t.Error("unknown name must error")
	}
}

func TestNthDropSchedule(t *testing.T) {
	// n=2: drop the 1st, 3rd, 5th, ... occurrence.
	count := 0
	var got []bool
	for i := 0; i < 6; i++ {
		got = append(got, nthDrop(2, &count))
	}
	want := []bool{true, false, true, false, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("nthDrop(2) occurrence %d = %v, want %v", i+1, got[i], want[i])
		}
	}
	// n=1 drops everything; n=0 nothing.
	count = 0
	if !nthDrop(1, &count) || !nthDrop(1, &count) {
		t.Error("nthDrop(1) must always drop")
	}
	count = 0
	if nthDrop(0, &count) {
		t.Error("nthDrop(0) must never drop")
	}
}

func TestLinkVerdictDeterminismAndRates(t *testing.T) {
	p := LossyWiFi()
	a, b := NewLink(p, 7), NewLink(p, 7)
	frame := make([]byte, 64)
	counts := map[netsim.Verdict]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		va, vb := a.Verdict(frame), b.Verdict(frame)
		if va != vb {
			t.Fatalf("same-seed links diverged at frame %d", i)
		}
		counts[va]++
	}
	// 3% loss over 20k frames: allow a generous deterministic-band check.
	if d := counts[netsim.Drop]; d < n*20/1000 || d > n*40/1000 {
		t.Errorf("drop count %d far from the 3%% target", d)
	}
	if a.Dropped() != counts[netsim.Drop] {
		t.Errorf("Dropped() = %d, want %d", a.Dropped(), counts[netsim.Drop])
	}
	if counts[netsim.Duplicate] == 0 || counts[netsim.Defer] == 0 {
		t.Error("expected some duplications and reorders at 20k frames")
	}
}

func TestBlackoutWindows(t *testing.T) {
	clock := netsim.NewClock(time.Date(2024, 4, 5, 9, 0, 0, 0, time.UTC))
	p := Profile{Blackouts: []Window{{From: 2 * time.Second, To: 4 * time.Second}}}
	s := NewServices(p, clock)
	if s.Blackout() {
		t.Error("before the window")
	}
	clock.Advance(3 * time.Second)
	if !s.Blackout() {
		t.Error("inside the window")
	}
	if !s.DropRA() || !s.DropDHCPv6() || !s.DropDNSReply(nil) {
		t.Error("all services must stay silent during a blackout")
	}
	clock.Advance(2 * time.Second)
	if s.Blackout() {
		t.Error("after the window")
	}
	if s.RAsDropped != 1 || s.DHCPv6Dropped != 1 || s.AAAADropped != 1 {
		t.Errorf("drop counters = %d/%d/%d, want 1/1/1", s.RAsDropped, s.DHCPv6Dropped, s.AAAADropped)
	}
}

func TestServicesSchedules(t *testing.T) {
	clock := netsim.NewClock(time.Date(2024, 4, 5, 9, 0, 0, 0, time.UTC))
	s := NewServices(FlakyDNSMasq(), clock)
	// RA schedule n=2: 1st dropped, 2nd sent, 3rd dropped.
	got := []bool{s.DropRA(), s.DropRA(), s.DropRA()}
	want := []bool{true, false, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DropRA occurrence %d = %v, want %v", i+1, got[i], want[i])
		}
	}
	if s.RAsDropped != 2 {
		t.Errorf("RAsDropped = %d, want 2", s.RAsDropped)
	}
	// Non-DNS payloads and queries never count toward the AAAA schedule.
	if s.DropDNSReply([]byte{0xde, 0xad}) {
		t.Error("garbage payload must pass")
	}
}
