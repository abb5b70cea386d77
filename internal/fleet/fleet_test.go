package fleet

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"v6lab/internal/device"
	"v6lab/internal/experiment"
)

// TestSpecForDeterministic: a spec is a pure function of (seed, index).
func TestSpecForDeterministic(t *testing.T) {
	cfg := Config{Homes: 20, Seed: 42}
	for i := 0; i < 20; i++ {
		a, b := cfg.SpecForIn(device.Registry(), i), cfg.SpecForIn(device.Registry(), i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("home %d: SpecForIn not deterministic:\n%+v\n%+v", i, a, b)
		}
	}
	// A different seed must produce a different population.
	other := Config{Homes: 20, Seed: 43}
	same := true
	for i := 0; i < 20; i++ {
		if !reflect.DeepEqual(cfg.SpecForIn(device.Registry(), i), other.SpecForIn(device.Registry(), i)) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical 20-home populations")
	}
}

// TestSpecForShape: sizes respect the bands, device indexes are sorted
// unique registry indexes, and config/policy come from the mixes.
func TestSpecForShape(t *testing.T) {
	cfg := Config{Homes: 50, Seed: 7}.withDefaults()
	reg := device.Registry()
	minSize, maxSize := sizeMix[0].min, sizeMix[0].max
	for _, b := range sizeMix {
		if b.min < minSize {
			minSize = b.min
		}
		if b.max > maxSize {
			maxSize = b.max
		}
	}
	policies := map[string]bool{}
	for _, s := range policyMix {
		policies[s.name] = true
	}
	for i := 0; i < 50; i++ {
		sp := cfg.SpecForIn(device.Registry(), i)
		if sp.Index != i {
			t.Fatalf("home %d: spec.Index = %d", i, sp.Index)
		}
		n := len(sp.DeviceIndexes)
		if n < minSize || n > maxSize {
			t.Fatalf("home %d: size %d outside bands [%d,%d]", i, n, minSize, maxSize)
		}
		if len(sp.Devices) != n {
			t.Fatalf("home %d: %d names for %d indexes", i, len(sp.Devices), n)
		}
		for j, di := range sp.DeviceIndexes {
			if j > 0 && di <= sp.DeviceIndexes[j-1] {
				t.Fatalf("home %d: device indexes not strictly increasing: %v", i, sp.DeviceIndexes)
			}
			if di < 0 || di >= len(reg) {
				t.Fatalf("home %d: device index %d out of registry range", i, di)
			}
			if sp.Devices[j] != reg[di].Name {
				t.Fatalf("home %d: name %q != registry[%d] = %q", i, sp.Devices[j], di, reg[di].Name)
			}
		}
		if _, ok := experiment.ConfigByID(sp.ConfigID); !ok {
			t.Fatalf("home %d: unknown connectivity config %q", i, sp.ConfigID)
		}
		if !policies[sp.Policy] {
			t.Fatalf("home %d: policy %q not in the mix", i, sp.Policy)
		}
	}
}

func TestRunRejectsNonPositiveHomes(t *testing.T) {
	for _, n := range []int{0, -3} {
		if _, err := RunContext(context.Background(), Config{Homes: n}); err == nil {
			t.Fatalf("Run(Homes: %d) succeeded, want error", n)
		}
	}
}

// TestRunAggregateSums runs a small fleet on >=4 concurrent workers (the
// -race concurrency check) and verifies the aggregate is an exact fold of
// the per-home results.
func TestRunAggregateSums(t *testing.T) {
	pop, err := RunContext(context.Background(), Config{Homes: 8, Workers: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(pop.Homes) != 8 {
		t.Fatalf("got %d home results, want 8", len(pop.Homes))
	}
	a := pop.Aggregate()
	var devices, functional, frames, configHomes, policyHomes int
	for i, hr := range pop.Homes {
		if hr.Spec.Index != i {
			t.Fatalf("result %d holds spec for home %d (order lost)", i, hr.Spec.Index)
		}
		devices += hr.Devices
		functional += hr.Functional
		frames += hr.FramesCaptured
		if hr.Functional > hr.Devices {
			t.Fatalf("home %d: %d functional of %d devices", i, hr.Functional, hr.Devices)
		}
	}
	if a.Homes != 8 || a.Devices != devices || a.DeviceFunctional != functional || a.FramesCaptured != frames {
		t.Fatalf("aggregate totals %+v disagree with per-home sums (devs %d func %d frames %d)",
			a, devices, functional, frames)
	}
	if a.HomesAllOK+a.HomesBricked != a.Homes {
		t.Fatalf("HomesAllOK %d + HomesBricked %d != Homes %d", a.HomesAllOK, a.HomesBricked, a.Homes)
	}
	for _, ca := range a.ByConfig {
		configHomes += ca.Homes
		if _, ok := experiment.ConfigByID(ca.ID); !ok {
			t.Fatalf("aggregate holds unknown config %q", ca.ID)
		}
	}
	if configHomes != a.Homes {
		t.Fatalf("ByConfig homes sum to %d, want %d", configHomes, a.Homes)
	}
	for _, pa := range a.ByPolicy {
		policyHomes += pa.Homes
		if pa.HomesExposed > pa.Homes || pa.DevicesReachable > pa.DevicesProbed {
			t.Fatalf("implausible policy aggregate %+v", pa)
		}
	}
	if policyHomes > a.Homes {
		t.Fatalf("ByPolicy homes sum to %d > %d homes", policyHomes, a.Homes)
	}
	// The per-policy prevalence covers every home exactly once, and its
	// columns fold back to the population totals.
	var prevHomes, prevBricked, prevAllOK, prevDADSkip, prevEUI64 int
	for _, pp := range a.PrevalenceByPolicy {
		prevHomes += pp.Homes
		prevBricked += pp.HomesBricked
		prevAllOK += pp.HomesAllOK
		prevDADSkip += pp.HomesDADSkip
		prevEUI64 += pp.HomesEUI64
		if pp.HomesBricked+pp.HomesAllOK != pp.Homes {
			t.Fatalf("policy %q: bricked %d + all-ok %d != homes %d",
				pp.Policy, pp.HomesBricked, pp.HomesAllOK, pp.Homes)
		}
	}
	if prevHomes != a.Homes {
		t.Fatalf("PrevalenceByPolicy homes sum to %d, want %d", prevHomes, a.Homes)
	}
	if prevBricked != a.HomesBricked || prevAllOK != a.HomesAllOK ||
		prevDADSkip != a.HomesDADSkip || prevEUI64 != a.HomesEUI64 {
		t.Fatalf("per-policy prevalence sums (%d/%d/%d/%d) disagree with population totals (%d/%d/%d/%d)",
			prevBricked, prevAllOK, prevDADSkip, prevEUI64,
			a.HomesBricked, a.HomesAllOK, a.HomesDADSkip, a.HomesEUI64)
	}
}

// TestRunWorkerCountInvariance: the same fleet on 1 worker and on 4
// workers produces deeply equal populations — merge order is home index,
// never completion order.
func TestRunWorkerCountInvariance(t *testing.T) {
	serial, err := RunContext(context.Background(), Config{Homes: 8, Workers: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunContext(context.Background(), Config{Homes: 8, Workers: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.Homes {
		if !reflect.DeepEqual(serial.Homes[i], parallel.Homes[i]) {
			t.Fatalf("home %d differs between 1 and 4 workers:\n%+v\n%+v",
				i, serial.Homes[i], parallel.Homes[i])
		}
	}
	if !reflect.DeepEqual(serial.Aggregate(), parallel.Aggregate()) {
		t.Fatal("aggregates differ between 1 and 4 workers")
	}
}

// handSpec builds a home of the registry's first n devices under one
// connectivity config and policy, outside the fleet's mixes.
func handSpec(reg []*device.Profile, n int, configID, policy string) HomeSpec {
	sp := HomeSpec{ConfigID: configID, Policy: policy}
	for i := range n {
		sp.DeviceIndexes = append(sp.DeviceIndexes, i)
		sp.Devices = append(sp.Devices, reg[i].Name)
	}
	return sp
}

// TestRunHomeOutcomes spot-checks the physics: an IPv4-only home shows no
// IPv6 funnel activity and no exposure scan, a v6-enabled home does.
func TestRunHomeOutcomes(t *testing.T) {
	reg := device.Registry()
	hr, err := runHome(Config{}, reg, handSpec(reg, 10, "ipv4-only", "stateful"), experiment.NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if hr.NDP != 0 || hr.GUA != 0 || hr.InternetV6 != 0 {
		t.Fatalf("ipv4-only home shows IPv6 funnel activity: %+v", hr)
	}
	if hr.Exposure != nil {
		t.Fatal("ipv4-only home ran a WAN IPv6 exposure scan")
	}
	if hr.Functional != hr.Devices {
		t.Fatalf("ipv4-only home bricked devices: %d/%d functional", hr.Functional, hr.Devices)
	}

	hr, err = runHome(Config{}, reg, handSpec(reg, 10, "dual-stack", "stateful"), experiment.NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if hr.NDP == 0 {
		t.Fatal("dual-stack home shows no NDP activity")
	}
	if hr.Exposure == nil {
		t.Fatal("dual-stack home skipped the exposure scan")
	}
	if !strings.EqualFold(hr.Exposure.Policy, "stateful") {
		t.Fatalf("exposure ran under policy %q, want stateful", hr.Exposure.Policy)
	}
	if hr.Exposure.DevicesReachable != 0 || hr.Exposure.PortsReachable != 0 {
		t.Fatalf("stateful default-deny let probes through: %+v", hr.Exposure)
	}
}

// TestSweepReplacesExposure: a Config.Sweep is the WAN phase of every
// v6-enabled home, in place of the exposure sweep. It runs on the live
// home with its firewall, and its error fails the home's run.
func TestSweepReplacesExposure(t *testing.T) {
	reg := device.Registry()
	spec := handSpec(reg, 10, "dual-stack", "open")
	calls := 0
	cfg := Config{
		Sweep: func(h *experiment.Home, hr *HomeResult) error {
			calls++
			if h.Firewall == nil {
				t.Error("the sweep got a home without its firewall")
			}
			if hr.Inventory == nil {
				t.Error("the sweep ran before the home's run was folded")
			}
			return nil
		},
	}
	hr, err := runHome(cfg, reg, spec, experiment.NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("Sweep ran %d times for one dual-stack home", calls)
	}
	if hr.Exposure != nil {
		t.Fatal("the exposure sweep ran alongside Config.Sweep")
	}
	cfg.Sweep = func(*experiment.Home, *HomeResult) error { return errors.New("probe failed") }
	if _, err := runHome(cfg, reg, spec, experiment.NewScratch()); err == nil || !strings.Contains(err.Error(), "probe failed") {
		t.Fatalf("runHome = %v, want the sweep's error", err)
	}
}
