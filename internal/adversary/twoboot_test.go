package adversary

import (
	"reflect"
	"testing"

	"v6lab/internal/device"
	"v6lab/internal/experiment"
	"v6lab/internal/firewall"
	"v6lab/internal/fleet"
	"v6lab/internal/world"
)

// twoBootCampaign is the campaign's former path, kept as a reference: a
// fresh study rebuilt from the home's spec boots the home a second time
// under its policy, reruns the workload, and is probed with the same
// shuffled targets.
func twoBootCampaign(t *testing.T, cfg Config, reg []*device.Profile, hr *fleet.HomeResult, hd *HomeDiscovery) HomeCampaign {
	t.Helper()
	st := experiment.NewStudyWith(experiment.StudyOptions{
		World:   world.Build(hr.Spec.Profiles(reg)),
		Capture: experiment.CaptureNone,
	})
	ec, _ := experiment.ConfigByID(hr.Spec.ConfigID)
	pol, err := firewall.ByName(hr.Spec.Policy)
	if err != nil {
		t.Fatal(err)
	}
	if ph, ok := pol.(firewall.Pinhole); ok && len(ph.Rules) == 0 {
		pol = firewall.Pinhole{Rules: experiment.DefaultPinholes(st.Profiles)}
	}
	h := st.NewHome(ec, pol, "")
	if err := h.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := h.Workload(); err != nil {
		t.Fatal(err)
	}
	rebuilt := *hr
	rebuilt.Functional = 0
	for _, s := range st.Stacks {
		if s.Functional() {
			rebuilt.Functional++
		}
	}
	hc, err := campaignHome(cfg, h, &rebuilt, hd, CampaignPorts())
	if err != nil {
		t.Fatal(err)
	}
	return *hc
}

// TestCampaignMatchesTwoBoot: probing the fleet's live home reports
// exactly what probing a second, freshly booted copy of it reports, home
// by home: the same targets answer on the same ports, and the same devices
// are functional. Only the probes' elapsed time may differ.
func TestCampaignMatchesTwoBoot(t *testing.T) {
	if testing.Short() {
		t.Skip("three 24-home adversary runs against a two-boot reference; skipped with -short")
	}
	reg := device.Registry()
	ouis := device.VendorOUIs()
	compared, reachable := 0, 0
	for _, seed := range []uint64{1, 2, 3} {
		cfg := Config{Fleet: fleet.Config{Homes: 24, Workers: 2, Seed: seed}}.withDefaults()
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// The defender's ground truth, which discovery scores against.
		pop, err := fleet.Run(cfg.Fleet)
		if err != nil {
			t.Fatal(err)
		}
		for i, hr := range pop.Homes {
			if ec, _ := experiment.ConfigByID(hr.Spec.ConfigID); !ec.Router.IPv6 {
				continue
			}
			want := twoBootCampaign(t, cfg, reg, hr, discoverHome(hr.Inventory, ouis, cfg.LowByteSweep))
			got := *rep.Campaign.Homes[i]
			got.Elapsed, want.Elapsed = 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d home %d (%s, %s): one boot\n%+v\ntwo boots\n%+v",
					seed, i, hr.Spec.ConfigID, hr.Spec.Policy, got, want)
			}
			if !got.Skipped {
				compared++
			}
			reachable += len(got.Reachable)
		}
	}
	if compared == 0 || reachable == 0 {
		t.Fatalf("%d homes probed, %d devices reachable; the comparison needs both", compared, reachable)
	}
}
