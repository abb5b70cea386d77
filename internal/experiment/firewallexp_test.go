package experiment

import (
	"testing"

	"v6lab/internal/router"
)

// runExposureOnce shares one study and one comparison run across the
// firewall tests (a full boot per policy is the expensive part).
func exposureFixture(t *testing.T) (*Study, *FirewallReport, *ScanReport) {
	t.Helper()
	st := NewStudy()
	rep, err := st.RunFirewallExposure(DefaultFirewallPolicies(st.Profiles))
	if err != nil {
		t.Fatal(err)
	}
	lan, err := st.RunPortScan()
	if err != nil {
		t.Fatal(err)
	}
	return st, rep, lan
}

func TestFirewallExposurePolicies(t *testing.T) {
	st, rep, lan := exposureFixture(t)
	if len(rep.Policies) != 3 {
		t.Fatalf("policies = %d, want 3", len(rep.Policies))
	}
	open := rep.Exposure("open")
	deny := rep.Exposure("stateful")
	pin := rep.Exposure("pinhole")
	if open == nil || deny == nil || pin == nil {
		t.Fatalf("missing policy rows: %+v", rep.Policies)
	}

	// The paper's open router: every device with a routable GUA exposes
	// exactly the v6 open ports the on-LAN §5.4.2 scan found for it.
	if open.DevicesProbed == 0 || open.AddrsProbed == 0 {
		t.Fatalf("open probed nothing: %+v", open)
	}
	for _, ds := range lan.Devices {
		wanPorts := open.OpenByDevice[ds.Device]
		hasGUA := false
		for _, a := range ds.V6Addrs {
			if router.GUAPrefix.Contains(a) {
				hasGUA = true
			}
		}
		if !hasGUA {
			if len(wanPorts) != 0 {
				t.Errorf("%s: reachable from WAN without a GUA: %v", ds.Device, wanPorts)
			}
			continue
		}
		if len(ds.OpenTCPv6) == 0 {
			if len(wanPorts) != 0 {
				t.Errorf("%s: WAN-open %v but LAN scan found none", ds.Device, wanPorts)
			}
			continue
		}
		if !equalPorts(wanPorts, ds.OpenTCPv6) {
			t.Errorf("%s: WAN-open %v != LAN-open %v under open policy", ds.Device, wanPorts, ds.OpenTCPv6)
		}
	}

	// RFC 6092 default-deny: nothing reachable from outside, every probe
	// dropped, and the devices' own cloud workloads unaffected.
	if deny.DevicesReachable != 0 || deny.PortsReachable != 0 {
		t.Fatalf("stateful leaked: %+v", deny.OpenByDevice)
	}
	if deny.FW.DroppedIn == 0 {
		t.Fatal("stateful dropped nothing — probes bypassed the firewall?")
	}
	if deny.FunctionalDevices != open.FunctionalDevices {
		t.Fatalf("stateful broke outbound flows: functional %d vs %d under open",
			deny.FunctionalDevices, open.FunctionalDevices)
	}
	if deny.FW.AllowedByState == 0 {
		t.Fatal("no return traffic matched state under default-deny")
	}

	// Pinholes re-expose exactly the v6-only service ports (the Samsung
	// Fridge's), and nothing else.
	if pin.DevicesReachable != 1 {
		t.Fatalf("pinhole reachable devices = %d, want 1 (the fridge): %+v", pin.DevicesReachable, pin.OpenByDevice)
	}
	fridge := pin.OpenByDevice["Samsung Fridge"]
	if !equalPorts(fridge, []uint16{37993, 46525, 46757}) {
		t.Fatalf("fridge pinhole ports = %v", fridge)
	}
	if len(pin.Pinholes) == 0 {
		t.Fatal("pinhole row lists no rules")
	}

	// Determinism anchor: the probe list must match the LAN scan's.
	if len(rep.Ports) != len(ProbePorts(st.Profiles)) {
		t.Fatalf("probe list drifted: %d ports", len(rep.Ports))
	}
}

func TestDefaultPinholes(t *testing.T) {
	st := NewStudy()
	rules := DefaultPinholes(st.Profiles)
	if len(rules) != 3 {
		t.Fatalf("rules = %v, want the fridge's three v6-only ports", rules)
	}
	want := []uint16{37993, 46525, 46757}
	for i, r := range rules {
		if r.Port != want[i] {
			t.Fatalf("rule %d port = %d, want %d", i, r.Port, want[i])
		}
	}
}

func equalPorts(a, b []uint16) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
