package fleet

import (
	"fmt"
	"reflect"
	"testing"

	"v6lab/internal/analysis"
	"v6lab/internal/device"
	"v6lab/internal/experiment"
	"v6lab/internal/firewall"
	"v6lab/internal/world"
)

// twoBootExposure is the fleet's former exposure path, kept as a
// reference: a fresh study runs the home's experiment with no firewall,
// then boots the home a second time under its policy, reruns the workload
// and sweeps it.
func twoBootExposure(t *testing.T, reg []*device.Profile, spec HomeSpec) *experiment.PolicyExposure {
	t.Helper()
	st := experiment.NewStudyWith(experiment.StudyOptions{
		World:   world.Build(spec.Profiles(reg)),
		Capture: experiment.CaptureNone,
	})
	ec, _ := experiment.ConfigByID(spec.ConfigID)
	if _, err := st.RunExperiment(ec); err != nil {
		t.Fatal(err)
	}
	pol, err := firewall.ByName(spec.Policy)
	if err != nil {
		t.Fatal(err)
	}
	if ph, ok := pol.(firewall.Pinhole); ok && len(ph.Rules) == 0 {
		pol = firewall.Pinhole{Rules: experiment.DefaultPinholes(st.Profiles)}
	}
	rep, err := st.RunFirewallExposureUnder(ec, []firewall.Policy{pol})
	if err != nil {
		t.Fatal(err)
	}
	return &rep.Policies[0]
}

// unfirewalled runs the home's experiment with no firewall and no sweep
// and folds it as the fleet does.
func unfirewalled(t *testing.T, reg []*device.Profile, spec HomeSpec) *HomeResult {
	t.Helper()
	st := experiment.NewStudyWith(experiment.StudyOptions{
		World:   world.Build(spec.Profiles(reg)),
		Capture: experiment.CaptureNone,
		Observe: analysis.Streaming(),
	})
	ec, _ := experiment.ConfigByID(spec.ConfigID)
	res, _, err := st.RunExperimentWith(ec, nil)
	if err != nil {
		t.Fatal(err)
	}
	return observeRun(spec, st, res, ec.Router.IPv6)
}

// observed is everything a home's run reports apart from its exposure.
func observed(hr *HomeResult) string {
	return fmt.Sprintf("devices %d ndp %d addr %d gua %d aaaa %d inet6 %d func %d dad %d/%d eui64 %d/%d frames %d inventory %+v",
		hr.Devices, hr.NDP, hr.Addr, hr.GUA, hr.AAAAReq, hr.InternetV6, hr.Functional,
		hr.DADSkipping, hr.DADNever, hr.EUI64Assign, hr.EUI64Use, hr.FramesCaptured, *hr.Inventory)
}

// TestOneBootMatchesTwoBoot: booting each home once, with its firewall on
// the path from the start and the sweep on the live home, reports exactly
// what the former two-boot path reported, down to the firewall and
// conntrack counters (the second boot's firewall saw the same workload).
// The same home run with no firewall and no sweep must observe exactly
// the same run: the firewall changed no frame the analysis saw, and no
// probe reached the analysis tap.
func TestOneBootMatchesTwoBoot(t *testing.T) {
	if testing.Short() {
		t.Skip("three 40-home fleets against a two-boot reference; skipped with -short")
	}
	reg := device.Registry()
	swept := 0
	for _, seed := range []uint64{1, 2, 3} {
		cfg := Config{Homes: 40, Workers: 2, Seed: seed}
		pop, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, hr := range pop.Homes {
			if got, want := observed(hr), observed(unfirewalled(t, reg, hr.Spec)); got != want {
				t.Errorf("seed %d home %d: the swept home observed\n%s\nthe unswept one\n%s", seed, i, got, want)
			}
			ec, _ := experiment.ConfigByID(hr.Spec.ConfigID)
			if !ec.Router.IPv6 {
				if hr.Exposure != nil {
					t.Errorf("seed %d home %d: IPv4-only home was swept", seed, i)
				}
				continue
			}
			swept++
			if got, want := hr.Exposure, twoBootExposure(t, reg, hr.Spec); !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d home %d (%s, %s): one boot exposed\n%+v\ntwo boots\n%+v",
					seed, i, hr.Spec.ConfigID, hr.Spec.Policy, *got, *want)
			}
		}
	}
	if swept == 0 {
		t.Fatal("no v6-enabled home was swept")
	}
}
