package analysis

import (
	"testing"

	"v6lab/internal/addr"
)

// TestTable10PerDevice asserts the paper's Table 10 at full granularity:
// for every one of the 93 devices, the six observed feature columns
// (functional in IPv6-only, NDP, address, GUA, DNS over IPv6, global data
// communication) must match the modelled profile — i.e., what the wire
// shows equals what the paper reported per device.
func TestTable10PerDevice(t *testing.T) {
	ds := dataset(t)
	base := ds.BaselineV6Only()
	for _, p := range ds.Profiles {
		d := ds.Device(V6Enabled, p.Name)
		d6 := ds.Device(V6Only, p.Name)

		check := func(col string, got, want bool) {
			if got != want {
				t.Errorf("%-22s %-12s observed=%v, Table 10 says %v", p.Name, col, got, want)
			}
		}
		check("Functional", base.Functional[p.Name], p.FunctionalV6Only)
		check("NDP", d.NDP, p.NDP)
		check("Address", len(d.Assigned) > 0, p.AssignAddr)
		check("GUA", d.HasAddr(addr.KindGUA), p.GUA)
		check("DNSOverV6", d.DNSOverV6(), p.DNSOverV6)
		check("GlobalData", d.InternetV6, p.V6InternetData)

		// The IPv6-only view must respect the dual-only gating flags.
		if p.DualOnlyAddr {
			check("Addr(v6only)", len(d6.Assigned) > 0, false)
		}
		if p.DualOnlyGUA {
			check("GUA(v6only)", d6.HasAddr(addr.KindGUA), false)
		}
		if p.DualOnlyInternetData {
			check("Data(v6only)", d6.InternetV6, false)
		}
	}
}

// TestStatefulAddressUsers asserts §5.2.1's finding at device granularity:
// exactly the SmartThings Hub, HomePod Mini, Aeotec Hub, and Samsung
// Fridge source traffic from their DHCPv6 leases.
func TestStatefulAddressUsers(t *testing.T) {
	ds := dataset(t)
	want := map[string]bool{
		"SmartThings Hub": true, "HomePod Mini": true,
		"Aeotec Hub": true, "Samsung Fridge": true,
	}
	for _, p := range ds.Profiles {
		d := ds.Device(V6Enabled, p.Name)
		a, _ := addrOf(d, d.StatefulLease)
		uses := d.StatefulLease.IsValid() && a.Used
		if uses != want[p.Name] {
			t.Errorf("%s: uses stateful lease = %v, want %v", p.Name, uses, want[p.Name])
		}
	}
}

// TestLLARotators asserts the §5.2.1 finding that only the Samsung Fridge,
// Samsung TV, HomePod Mini, and Apple TV (plus the Aeotec Hub, a
// documented deviation) hold more than one link-local address.
func TestLLARotators(t *testing.T) {
	ds := dataset(t)
	allowed := map[string]bool{
		"Samsung Fridge": true, "Samsung TV": true,
		"HomePod Mini": true, "Apple TV": true, "Aeotec Hub": true,
	}
	for _, p := range ds.Profiles {
		d := ds.Device(V6Enabled, p.Name)
		llas := 0
		for _, a := range d.Assigned {
			if a.Kind == addr.KindLLA {
				llas++
			}
		}
		if llas > 1 && !allowed[p.Name] {
			t.Errorf("%s: %d LLAs, expected a single stable one", p.Name, llas)
		}
		if allowed[p.Name] && llas < 2 {
			t.Errorf("%s: %d LLAs, expected rotation", p.Name, llas)
		}
	}
}
