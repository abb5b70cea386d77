package v6lab

import (
	"maps"
	"sync"
	"testing"

	"v6lab/internal/faults"
)

var (
	privOnce sync.Once
	privLab  *Lab
	privErr  error
)

func privacyLab(t *testing.T) *Lab {
	t.Helper()
	privOnce.Do(func() {
		privLab = New(WithAblation(Options{ForcePrivacyExtensions: true, ForceDAD: true}))
		privErr = privLab.Run()
	})
	if privErr != nil {
		t.Fatal(privErr)
	}
	return privLab
}

// TestPrivacyExtensionAblation verifies the paper's §6 recommendation: with
// RFC 8981 privacy extensions everywhere, the EUI-64 tracking surface
// disappears completely.
func TestPrivacyExtensionAblation(t *testing.T) {
	lab := privacyLab(t)
	r := lab.Data.EUI64Exposure()
	if r.Assign != 0 || r.Use != 0 || r.DNS != 0 || r.Data != 0 {
		t.Errorf("EUI-64 funnel with privacy extensions = %d/%d/%d/%d, want all zero",
			r.Assign, r.Use, r.DNS, r.Data)
	}
}

// TestForceDADAblation verifies full RFC 4862 compliance removes every
// audit finding.
func TestForceDADAblation(t *testing.T) {
	lab := privacyLab(t)
	a := lab.Data.DADAudit()
	if a.DevicesSkipping != 0 || a.GUAsNoDAD+a.ULAsNoDAD+a.LLAsNoDAD != 0 {
		t.Errorf("DAD audit with forced compliance: %+v", a)
	}
}

// TestMitigationsPreserveReadiness: the privacy mitigations must not change
// the functional outcome — readiness is a DNS/destination problem, not an
// addressing one.
func TestMitigationsPreserveReadiness(t *testing.T) {
	lab := privacyLab(t)
	f := lab.Data.Table3()
	if got := f.Functional.Total(); got != 8 {
		t.Errorf("functional devices = %d, want 8 (mitigations should not change readiness)", got)
	}
}

// TestAAAAEverywhereAblation models a fully v6-ready destination Internet:
// every device with complete IPv6 support becomes functional, devices with
// stack limitations still fail.
func TestAAAAEverywhereAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("extra full study in -short mode")
	}
	lab := New(WithAblation(Options{AAAAEverywhere: true}))
	if err := lab.Run(); err != nil {
		t.Fatal(err)
	}
	f := lab.Data.Table3()
	got := f.Functional.Total()
	if got <= 8 {
		t.Errorf("functional devices with AAAA everywhere = %d, want more than the baseline 8", got)
	}
	// Devices with no IPv6 stack at all can never become functional.
	if got > 93-f.NoIPv6.Total() {
		t.Errorf("functional (%d) exceeds devices with any IPv6 support (%d)", got, 93-f.NoIPv6.Total())
	}
	t.Logf("AAAA-everywhere: %d functional (baseline 8)", got)
}

// TestAblationReachesResilience: the resilience grid runs on the lab's
// own ablated world, so its clean grid counts the functional IPv6-only
// devices the study counts.
func TestAblationReachesResilience(t *testing.T) {
	lab := New(WithAblation(Options{AAAAEverywhere: true}))
	if err := lab.Run(Connectivity(), Resilience(Impairments(faults.Clean()))); err != nil {
		t.Fatal(err)
	}
	study := lab.Data.Table3().Functional.Total()
	if study <= 8 {
		t.Fatalf("study counts %d functional devices, want more than the unablated 8", study)
	}
	rc := lab.Resil.Config("clean", "ipv6-only")
	if rc == nil {
		t.Fatal("resilience has no clean ipv6-only run")
	}
	if rc.Functional != study {
		t.Errorf("clean resilience grid counts %d functional IPv6-only devices, the study %d", rc.Functional, study)
	}
}

// TestAblationPcapsDeterministic: AAAA records are handed out in plan
// order, so identical AAAA-everywhere labs write identical pcaps.
func TestAblationPcapsDeterministic(t *testing.T) {
	opts := []Option{
		WithAblation(Options{AAAAEverywhere: true}),
		WithDevices("Samsung Fridge", "Samsung TV", "Echo Spot", "HomePod Mini", "Wyze Cam", "Apple TV"),
	}
	first := runPcaps(t, opts...)
	for i := 0; i < 2; i++ {
		if again := runPcaps(t, opts...); !maps.Equal(again, first) {
			t.Fatalf("repeat %d of an AAAA-everywhere lab wrote different outputs:\n%v\nvs\n%v", i+1, again, first)
		}
	}
}
