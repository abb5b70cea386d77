package adversary

import (
	"context"
	"strings"
	"testing"
	"time"

	"v6lab/internal/addr"
	"v6lab/internal/device"
	"v6lab/internal/fleet"
	"v6lab/internal/telemetry"
)

// smallCfg is the cheap pipeline configuration most tests share.
func smallCfg(workers int) Config {
	return Config{Fleet: fleet.Config{Homes: 24, Workers: workers, Seed: 7}}
}

// TestDiscoveryScoring is the subsystem's core contract: the generator
// finds EUI-64 and low-byte addresses (they are hitlist-predictable) and
// never finds a privacy address except through the leak harvest.
func TestDiscoveryScoring(t *testing.T) {
	pop, err := fleet.RunContext(context.Background(), smallCfg(4).Fleet)
	if err != nil {
		t.Fatal(err)
	}
	ouis := device.VendorOUIs()
	var ds []*HomeDiscovery
	for _, hr := range pop.Homes {
		ds = append(ds, discoverHome(hr.Inventory, ouis, 256))
	}

	// Ground-truth tally to compare the generator against.
	var wantEUI64, wantLowByte, privacy int
	for _, hr := range pop.Homes {
		for _, d := range hr.Inventory.Devices {
			for _, r := range d.Addrs {
				switch r.Class {
				case addr.IIDEUI64:
					wantEUI64++
				case addr.IIDLowByte:
					wantLowByte++
				default:
					privacy++
				}
			}
		}
	}
	if wantEUI64 == 0 {
		t.Fatal("population holds no EUI-64 addresses; fleet seed no longer exercises discovery")
	}

	var gotEUI64, gotLowByte int
	for _, hd := range ds {
		for _, f := range hd.Found {
			switch {
			case f.Class == addr.IIDEUI64 && f.Source == SourceEUI64:
				gotEUI64++
			case f.Class == addr.IIDLowByte && f.Source == SourceLowByte:
				gotLowByte++
			case f.Class == addr.IIDRandom && f.Source != SourceLeak:
				t.Errorf("privacy address %v discovered by %v; generation must never reach it", f.LAN, f.Source)
			}
		}
	}
	// Every predictable address must fall to generation: EUI-64 to the
	// vendor expansion, low-byte to the sweep. (Leak-harvested EUI-64
	// addresses were already found by expansion, which runs first.)
	if gotEUI64 != wantEUI64 {
		t.Errorf("EUI-64 expansion found %d of %d EUI-64 addresses", gotEUI64, wantEUI64)
	}
	if gotLowByte != wantLowByte {
		t.Errorf("low-byte sweep found %d of %d low-byte addresses", gotLowByte, wantLowByte)
	}
	if privacy == 0 {
		t.Error("population holds no privacy addresses; the miss case is untested")
	}
	rep := summarizeDiscovery(ds)
	if rep.MissedRandom == 0 {
		t.Error("no privacy address was missed; RFC 8981 addresses should defeat generation")
	}
	if rep.Found+rep.Missed != rep.AddrsTotal {
		t.Errorf("found %d + missed %d != total %d", rep.Found, rep.Missed, rep.AddrsTotal)
	}
}

// TestCampaignRespectsFirewall checks the sweep goes through each home's
// policy: stateful default-deny homes must yield no reachable devices,
// and probe counts must line up with targets × ports.
func TestCampaignRespectsFirewall(t *testing.T) {
	rep, err := Run(smallCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range rep.Campaign.PerPolicy {
		if pc.Policy == "stateful" && pc.DevicesReachable != 0 {
			t.Errorf("stateful default-deny let %d devices through", pc.DevicesReachable)
		}
	}
	wantProbes := rep.Campaign.TargetsProbed * len(rep.Campaign.Ports)
	if rep.Campaign.ProbesSent != wantProbes {
		t.Errorf("ProbesSent = %d, want targets×ports = %d", rep.Campaign.ProbesSent, wantProbes)
	}
	for _, pw := range rep.Worm.PerPolicy {
		if pw.Policy == "stateful" && pw.Compromised != 0 {
			t.Errorf("worm compromised %d devices behind stateful default-deny", pw.Compromised)
		}
	}
}

// TestProbeBudgetTruncates caps the campaign and checks the budget holds
// per home and the truncation is flagged.
func TestProbeBudgetTruncates(t *testing.T) {
	cfg := smallCfg(4)
	cfg.ProbeBudget = len(CampaignPorts()) // budget for exactly one target per home
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	truncated := false
	for _, hc := range rep.Campaign.Homes {
		if hc.Skipped {
			continue
		}
		if hc.ProbesSent > cfg.ProbeBudget {
			t.Errorf("home %d sent %d probes over budget %d", hc.Index, hc.ProbesSent, cfg.ProbeBudget)
		}
		if hc.Truncated {
			truncated = true
		}
	}
	if !truncated {
		t.Error("no home was truncated; budget too generous for the test to bite")
	}
}

// TestRunDeterministic reruns the same configuration and requires every
// population-visible number to repeat exactly: the whole pipeline is a
// pure function of (fleet seed, campaign seed).
func TestRunDeterministic(t *testing.T) {
	a, err := Run(smallCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	if a.Discovery != b.Discovery {
		t.Errorf("discovery differs across reruns:\n%+v\n%+v", a.Discovery, b.Discovery)
	}
	if a.Campaign.ProbesSent != b.Campaign.ProbesSent ||
		a.Campaign.DevicesReachable != b.Campaign.DevicesReachable {
		t.Errorf("campaign differs across reruns: %+v vs %+v", a.Campaign, b.Campaign)
	}
	if a.Worm.Compromised != b.Worm.Compromised || a.Worm.ProbesSent != b.Worm.ProbesSent {
		t.Errorf("worm differs across reruns: %+v vs %+v", a.Worm, b.Worm)
	}
}

// TestTelemetryCounters checks the adversary counters fold once with the
// run's totals.
func TestTelemetryCounters(t *testing.T) {
	cfg := smallCfg(4)
	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot(time.Time{})
	found := false
	for _, m := range snap.Points {
		if strings.Contains(m.Name, "adversary_campaign_probes_total") {
			found = true
		}
	}
	if !found {
		t.Errorf("snapshot missing adversary counters: %+v", snap.Points)
	}
	if rep.Campaign.ProbesSent == 0 {
		t.Error("campaign sent no probes; counters untestable")
	}
}

// TestBootCountedOnce: an adversary run boots each home once, so its
// telemetry counts exactly the cloud queries a plain fleet run of the same
// population counts. The campaign's probes issue no DNS.
func TestBootCountedOnce(t *testing.T) {
	cloudQueries := func(reg *telemetry.Registry) (n int64) {
		for _, p := range reg.Snapshot(time.Time{}).Points {
			if p.Name == "cloud_queries_total" {
				n += p.Value
			}
		}
		return n
	}
	cfg := smallCfg(4)
	plain := cfg.Fleet
	plain.Telemetry = telemetry.NewRegistry()
	if _, err := fleet.Run(plain); err != nil {
		t.Fatal(err)
	}
	cfg.Telemetry = telemetry.NewRegistry()
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	want := cloudQueries(plain.Telemetry)
	if want == 0 {
		t.Fatal("the fleet served no cloud queries; the count is untestable")
	}
	if got := cloudQueries(cfg.Telemetry); got != want {
		t.Errorf("adversary run counted %d cloud queries, the plain fleet %d", got, want)
	}
}
