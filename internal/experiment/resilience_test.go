package experiment

import (
	"bytes"
	"testing"

	"v6lab/internal/device"
	"v6lab/internal/faults"
	"v6lab/internal/pcapio"
	"v6lab/internal/world"
)

// subset picks named profiles from a fresh registry, preserving registry
// order, so resilience tests run on a small deterministic population.
func subset(t *testing.T, names ...string) []*device.Profile {
	t.Helper()
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	var out []*device.Profile
	for _, p := range device.Registry() {
		if want[p.Name] {
			out = append(out, p)
		}
	}
	if len(out) != len(names) {
		t.Fatalf("subset resolved %d of %d names", len(out), len(names))
	}
	return out
}

// The resilience grid must be byte-deterministic: two runs from the same
// options produce identical reports and identical pcaps.
func TestResilienceDeterministic(t *testing.T) {
	profiles := []faults.Profile{faults.LossyWiFi(), faults.ClampedTunnel()}

	// outcome is a comparable per-experiment summary; captures are
	// compared record by record separately.
	type outcome struct {
		profile, id           string
		functional            int
		dropped, retransmits  int
		ptbSent, serviceDrops int
	}

	run := func() ([]outcome, []*pcapio.Capture) {
		// Each run builds its own world: determinism must not lean on
		// sharing one.
		opts := StudyOptions{World: world.Build(subset(t, "TiVo Stream", "Apple TV", "Wyze Cam"))}
		var outs []outcome
		var caps []*pcapio.Capture
		for _, p := range profiles {
			o := opts
			fp := p
			o.Faults = &fp
			st := NewStudyWith(o)
			for _, cfg := range Configs {
				res, err := st.RunExperiment(cfg)
				if err != nil {
					t.Fatal(err)
				}
				caps = append(caps, res.Capture)
				n := 0
				for _, ok := range res.Functional {
					if ok {
						n++
					}
				}
				outs = append(outs, outcome{
					profile: p.Name, id: cfg.ID, functional: n,
					dropped: res.FramesDropped, retransmits: res.Retransmits,
					ptbSent: res.PTBSent, serviceDrops: res.ServiceDrops,
				})
			}
		}
		return outs, caps
	}

	outsA, capsA := run()
	outsB, capsB := run()
	for i := range capsA {
		a, b := capsA[i], capsB[i]
		if a.Len() != b.Len() {
			t.Fatalf("capture %d: %d vs %d frames between identical runs", i, a.Len(), b.Len())
		}
		for j := range a.Records {
			ra, rb := a.Records[j], b.Records[j]
			if !ra.Time.Equal(rb.Time) || !bytes.Equal(ra.Data, rb.Data) {
				t.Fatalf("capture %d record %d differs between identical runs", i, j)
			}
		}
	}
	for i := range outsA {
		if outsA[i] != outsB[i] {
			t.Errorf("outcome differs: %+v vs %+v", outsA[i], outsB[i])
		}
	}
}

// The clamped tunnel must change an outcome: a NoPMTUD device that is
// functional on the clean network bricks in the v6-only configurations,
// while a PMTUD-honoring device recovers via Packet-Too-Big.
func TestClampedTunnelChangesOutcome(t *testing.T) {
	names := []string{"TiVo Stream", "Apple TV"}
	rep, err := RunResilience(StudyOptions{World: world.Build(subset(t, names...))},
		faults.Clean(), faults.ClampedTunnel())
	if err != nil {
		t.Fatal(err)
	}

	clean := rep.Config("clean", "ipv6-only")
	clamped := rep.Config("clamped-tunnel", "ipv6-only")
	if clean == nil || clamped == nil {
		t.Fatal("missing grid cells")
	}
	if clean.Functional != 2 {
		t.Fatalf("clean ipv6-only functional = %d, want 2 (%v)", clean.Functional, clean.Failures)
	}
	if clamped.Functional != 1 {
		t.Fatalf("clamped ipv6-only functional = %d, want 1 (%v)", clamped.Functional, clamped.Failures)
	}
	if clamped.Failures["data-stalled"] != 1 {
		t.Errorf("want the NoPMTUD device data-stalled, got %v", clamped.Failures)
	}
	if len(clamped.FailedDevices) != 1 || clamped.FailedDevices[0] != "TiVo Stream" {
		t.Errorf("FailedDevices = %v, want [TiVo Stream]", clamped.FailedDevices)
	}
	if clamped.PTBSent == 0 {
		t.Error("a clamped tunnel must emit Packet-Too-Big")
	}
	// Dual-stack keeps both functional: essentials fall back to IPv4.
	if c := rep.Config("clamped-tunnel", "dual-stack"); c == nil || c.Functional != 2 {
		t.Errorf("dual-stack under clamp must stay functional, got %+v", c)
	}
}

// Lossy Wi-Fi must be survivable: the retry machinery recovers every
// device the clean network had functional, at the cost of retransmits.
func TestLossyWiFiRecoversViaRetries(t *testing.T) {
	names := []string{"Apple TV", "Nest Hub", "Wyze Cam"}
	rep, err := RunResilience(StudyOptions{World: world.Build(subset(t, names...))},
		faults.Clean(), faults.LossyWiFi())
	if err != nil {
		t.Fatal(err)
	}
	clean, lossy := rep.Profiles[0], rep.Profiles[1]
	if lossy.FunctionalTotal != clean.FunctionalTotal {
		t.Errorf("lossy functional total %d != clean %d", lossy.FunctionalTotal, clean.FunctionalTotal)
	}
	var drops, retransmits int
	for _, rc := range lossy.ByConfig {
		drops += rc.FramesDropped
		retransmits += rc.Retransmits
	}
	if drops == 0 || retransmits == 0 {
		t.Errorf("lossy grid shows drops=%d retransmits=%d, want both > 0", drops, retransmits)
	}
	for _, rc := range clean.ByConfig {
		if rc.FramesDropped != 0 || rc.Retransmits != 0 {
			t.Errorf("clean profile must not drop or retransmit: %+v", rc)
		}
	}
}

// The flaky-dnsmasq schedule drops the first RA and DHCPv6 reply — only
// the config-retry pass (RS retransmit, DHCPv6 retry) keeps v6-dependent
// devices alive.
func TestFlakyDNSMasqRecoveredByConfigRetries(t *testing.T) {
	names := []string{"Apple TV", "Nest Hub"}
	rep, err := RunResilience(StudyOptions{World: world.Build(subset(t, names...))},
		faults.Clean(), faults.FlakyDNSMasq())
	if err != nil {
		t.Fatal(err)
	}
	clean, flaky := rep.Profiles[0], rep.Profiles[1]
	if flaky.FunctionalTotal != clean.FunctionalTotal {
		t.Errorf("flaky functional total %d != clean %d", flaky.FunctionalTotal, clean.FunctionalTotal)
	}
	var serviceDrops int
	for _, rc := range flaky.ByConfig {
		serviceDrops += rc.ServiceDrops
	}
	if serviceDrops == 0 {
		t.Error("flaky-dnsmasq must drop service messages")
	}
}

// RunResilience defaults to the full grid and reports every profile.
func TestRunResilienceDefaultGrid(t *testing.T) {
	rep, err := RunResilience(StudyOptions{World: world.Build(subset(t, "Wyze Cam"))})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Profiles) != len(faults.Grid()) {
		t.Fatalf("profiles = %d, want %d", len(rep.Profiles), len(faults.Grid()))
	}
	if rep.Devices != 1 {
		t.Errorf("devices = %d, want 1", rep.Devices)
	}
	for _, p := range rep.Profiles {
		if len(p.ByConfig) != len(Configs) {
			t.Errorf("%s ran %d configs, want %d", p.Profile.Name, len(p.ByConfig), len(Configs))
		}
	}
}
