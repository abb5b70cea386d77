package v6lab

import (
	"errors"
	"maps"
	"strings"
	"testing"

	"v6lab/internal/device"
	"v6lab/internal/faults"
)

func TestZeroOptionNewMatchesFullRegistry(t *testing.T) {
	lab := New()
	if got, want := len(lab.Study.Profiles), len(device.Registry()); got != want {
		t.Errorf("zero-option lab has %d devices, want the full registry (%d)", got, want)
	}
	if lab.Study.Options().MaxFramesPerRun != 3_000_000 {
		t.Errorf("MaxFramesPerRun = %d, want the 3M default", lab.Study.Options().MaxFramesPerRun)
	}
}

func TestWithDevicesRestrictsAndOrders(t *testing.T) {
	// Names given out of registry order; the testbed keeps registry order.
	lab := New(WithDevices("Wyze Cam", "Apple TV"))
	if len(lab.Study.Profiles) != 2 {
		t.Fatalf("got %d devices, want 2", len(lab.Study.Profiles))
	}
	var names []string
	for _, p := range lab.Study.Profiles {
		names = append(names, p.Name)
	}
	idx := map[string]int{}
	for i, p := range device.Registry() {
		idx[p.Name] = i
	}
	if idx[names[0]] > idx[names[1]] {
		t.Errorf("devices %v not in registry order", names)
	}
}

func TestWithDevicesUnknownNameErr(t *testing.T) {
	const want = "WithDevices: v6lab: unknown device: Quantum Toaster, Acme Widget"
	// Several unknown names, one repeated: the message lists each once, in
	// the order given, on every construction.
	for i := 0; i < 5; i++ {
		err := New(WithDevices("Quantum Toaster", "Wyze Cam", "Acme Widget", "Quantum Toaster")).Run()
		if !errors.Is(err, ErrUnknownDevice) {
			t.Fatalf("err = %v, want ErrUnknownDevice", err)
		}
		if err.Error() != want {
			t.Fatalf("err = %q, want %q", err, want)
		}
	}
}

func TestWithMaxFramesPerRun(t *testing.T) {
	if got := New(WithMaxFramesPerRun(12345)).Study.Options().MaxFramesPerRun; got != 12345 {
		t.Errorf("MaxFramesPerRun = %d, want 12345", got)
	}
}

func TestReportErrUnknownArtifact(t *testing.T) {
	lab := New()
	_, err := lab.ReportErr(Artifact("table99"))
	if !errors.Is(err, ErrUnknownArtifact) {
		t.Fatalf("err = %v, want ErrUnknownArtifact", err)
	}
	if !strings.Contains(err.Error(), "table99") {
		t.Errorf("error %q does not name the artifact", err)
	}
	// The legacy Report keeps its one-line placeholder.
	if got := lab.Report(Artifact("table99")); got != "unknown artifact \"table99\"\n" {
		t.Errorf("Report placeholder = %q", got)
	}
}

func TestResilienceArtifactBeforeRun(t *testing.T) {
	// Resilience (like fleet) renders without the single-home study.
	out, err := New().ReportErr(ResilienceStudy)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "not run") {
		t.Errorf("want a not-run note, got %q", out)
	}
}

// TestResiliencePartAndSeedDeterminism: Run(Resilience(...)) fills Resil,
// the artifact renders the grid, and the same seed reproduces the report
// byte for byte.
func TestResiliencePartAndSeedDeterminism(t *testing.T) {
	run := func() string {
		lab := New(WithDevices("TiVo Stream", "Apple TV"), WithSeed(7))
		if err := lab.Run(Resilience(Impairments(faults.Clean(), faults.ClampedTunnel()))); err != nil {
			t.Fatal(err)
		}
		if lab.Resil == nil {
			t.Fatal("Run(Resilience()) left Resil nil")
		}
		out, err := lab.ReportErr(ResilienceStudy)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), b2(t, run)
	if a != b {
		t.Error("same seed and profiles produced different resilience reports")
	}
	for _, want := range []string{"clamped-tunnel", "ipv6-only", "TiVo Stream"} {
		if !strings.Contains(a, want) {
			t.Errorf("resilience report missing %q:\n%s", want, a)
		}
	}
}

// b2 exists only to keep the double-run readable above.
func b2(t *testing.T, run func() string) string {
	t.Helper()
	return run()
}

// TestRunPartsAccumulateAndReproduce: a single Run(...) with several
// parts fills every corresponding result field, and a second lab running
// the same parts renders byte-identical artifacts.
func TestRunPartsAccumulateAndReproduce(t *testing.T) {
	a := New(WithDevices("Wyze Cam"))
	if err := a.Run(Connectivity(), FirewallComparison("stateful"), Fleet(2)); err != nil {
		t.Fatal(err)
	}
	if a.FirewallCmp == nil {
		t.Fatal("Run(FirewallComparison(...)) left FirewallCmp nil")
	}
	if a.FleetPop == nil {
		t.Fatal("Run(Fleet(...)) left FleetPop nil")
	}

	b := New(WithDevices("Wyze Cam"))
	if err := b.Run(Connectivity(), FirewallComparison("stateful"), Fleet(2)); err != nil {
		t.Fatal(err)
	}
	if got, want := a.Report(Firewall), b.Report(Firewall); got != want {
		t.Errorf("repeat runs produced different firewall artifacts:\n%s\nvs\n%s", got, want)
	}
	if got, want := a.Report(FleetStudy), b.Report(FleetStudy); got != want {
		t.Errorf("repeat runs produced different fleet artifacts")
	}
}

// TestFaultProfileChangesOutputCleanDoesNot: WithFaultProfile(clean) keeps
// the default byte-identical path (no impairment installed), an active
// profile flips the study into the impaired path.
func TestFaultProfileChangesOutputCleanDoesNot(t *testing.T) {
	if New(WithFaultProfile(faults.Clean())).Study.Options().Faults != nil {
		t.Error("a clean profile must not install impairment")
	}
	lab := New(WithFaultProfile(faults.LossyWiFi()))
	if lab.Study.Options().Faults == nil {
		t.Fatal("an active profile must reach the study")
	}
	if lab.Study.Options().Faults.Seed != 1 {
		t.Errorf("profile seed = %d, want 1", lab.Study.Options().Faults.Seed)
	}
	// A profile without its own seed inherits WithSeed.
	seedless := faults.Profile{Name: "seedless-loss", LossPermille: 30}
	if got := New(WithSeed(9), WithFaultProfile(seedless)).Study.Options().Faults.Seed; got != 9 {
		t.Errorf("seedless profile got seed %d, want WithSeed's 9", got)
	}
}

// TestLossyWiFiSeedFollowsLab: lossy-wifi carries no seed of its own, so
// the lab's seed drives its frame fates in the study and in a Timeline's
// impairment.
func TestLossyWiFiSeedFollowsLab(t *testing.T) {
	devices := WithDevices("Wyze Cam", "Apple TV", "Google Nest Mini")
	lossy := WithFaultProfile(faults.LossyWiFi())
	one := runPcaps(t, devices, lossy, WithSeed(1))
	if again := runPcaps(t, devices, lossy, WithSeed(1)); !maps.Equal(again, one) {
		t.Fatalf("two seed-1 lossy-wifi labs wrote different outputs:\n%v\nvs\n%v", again, one)
	}
	seven := runPcaps(t, devices, lossy, WithSeed(7))
	for _, id := range configIDs() {
		if seven[id] == one[id] {
			t.Errorf("%s pcap is the same at seed 7 as at seed 1", id)
		}
	}
	cfg, err := New(WithSeed(7)).timelineConfig(Days(1), applyParts([]PartOption{Impairments(faults.LossyWiFi())}))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Impairments.Seed != 7 {
		t.Errorf("timeline impairment seed = %d, want WithSeed's 7", cfg.Impairments.Seed)
	}
}
