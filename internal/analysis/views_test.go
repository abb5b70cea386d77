package analysis

import (
	"reflect"
	"testing"

	"v6lab/internal/device"
)

// merged is the reference the group views are checked against: a fresh
// union of a device's observations across exps, nil when no run saw the
// device.
func merged(exps []*ExpObs, name string) *DeviceObs {
	var out *DeviceObs
	for _, e := range exps {
		d, ok := e.Devices[name]
		if !ok {
			continue
		}
		if out == nil {
			out = newDeviceObs(&device.Profile{Name: d.Name, Category: d.Category}, d.MAC)
		}
		out.NDP = out.NDP || d.NDP
		for a, k := range d.Assigned {
			out.Assigned[a] = k
		}
		for a := range d.Used {
			out.Used[a] = true
		}
		for a := range d.DADProbed {
			out.DADProbed[a] = true
		}
		if d.StatefulLease.IsValid() {
			out.StatefulLease = d.StatefulLease
		}
		out.StatelessDHCPv6 = out.StatelessDHCPv6 || d.StatelessDHCPv6
		out.StatefulDHCPv6 = out.StatefulDHCPv6 || d.StatefulDHCPv6
		for k := range d.Queries {
			out.Queries[k] = true
		}
		for k := range d.Responses {
			out.Responses[k] = true
		}
		for k := range d.InternetFlows {
			out.InternetFlows[k] = true
		}
		out.LocalV6Data = out.LocalV6Data || d.LocalV6Data
		out.InternetV6 = out.InternetV6 || d.InternetV6
		out.InternetV4 = out.InternetV4 || d.InternetV4
		out.BytesV4 += d.BytesV4
		out.BytesV6 += d.BytesV6
		out.EUI64DNS = out.EUI64DNS || d.EUI64DNS
		out.EUI64Data = out.EUI64Data || d.EUI64Data
		out.EUI64GUAUsed = out.EUI64GUAUsed || d.EUI64GUAUsed
		for n := range d.EUI64DNSNames {
			out.EUI64DNSNames[n] = true
		}
		for n := range d.EUI64DataDomains {
			out.EUI64DataDomains[n] = true
		}
	}
	return out
}

// groupExps selects a group's experiments by the mode predicates the
// tables used before the views existed.
var groupExps = map[Group]func(*ExpObs) bool{
	V4Only:    func(e *ExpObs) bool { return e.Mode == device.ModeV4Only },
	V6Only:    func(e *ExpObs) bool { return e.Mode == device.ModeV6Only },
	DualStack: func(e *ExpObs) bool { return e.Mode == device.ModeDual },
	V6Enabled: func(e *ExpObs) bool { return e.Mode != device.ModeV4Only },
	AllRuns:   func(e *ExpObs) bool { return true },
}

// exported returns the device's exported fields; the zero value when d
// is nil.
func exported(d *DeviceObs) DeviceObs {
	if d == nil {
		return DeviceObs{}
	}
	c := *d
	c.pendingFlows, c.pendingEUI64 = nil, nil
	return c
}

func TestGroupViewsMatchUnion(t *testing.T) {
	ds := dataset(t)
	if len(ds.Profiles) != 93 {
		t.Fatalf("profiles = %d, want 93", len(ds.Profiles))
	}
	for g, in := range groupExps {
		var exps []*ExpObs
		for _, e := range ds.Exps {
			if in(e) {
				exps = append(exps, e)
			}
		}
		if len(exps) == 0 {
			t.Fatalf("group %03b selects no experiment", g)
		}
		for _, p := range ds.Profiles {
			want := exported(merged(exps, p.Name))
			if got := exported(ds.Device(g, p.Name)); !reflect.DeepEqual(got, want) {
				t.Errorf("group %03b, %s: view differs from the union\n got %+v\nwant %+v", g, p.Name, got, want)
			}
		}
	}

	// A fleet home runs one experiment: every group that selects it reads
	// one shared map, and the groups that select nothing share another.
	one := &Dataset{Exps: ds.Exps[1:2], Profiles: ds.Profiles}
	one.buildViews()
	same := func(a, b Group) bool {
		return reflect.ValueOf(one.views[a]).Pointer() == reflect.ValueOf(one.views[b]).Pointer()
	}
	if !same(V6Only, V6Enabled) || !same(V6Only, AllRuns) || !same(V4Only, DualStack) || same(V4Only, V6Only) {
		t.Errorf("one-experiment views are not shared per experiment set")
	}
	for _, p := range one.Profiles {
		if got, want := exported(one.Device(AllRuns, p.Name)), exported(merged(one.Exps, p.Name)); !reflect.DeepEqual(got, want) {
			t.Errorf("one-experiment view of %s differs from the union", p.Name)
		}
	}

	// Every table reads the views; none may write the shared zero value.
	ds.Table3()
	ds.Table4()
	ds.Table5()
	ds.Table6()
	ds.Table7(3)
	ds.Table9()
	ds.Figure3()
	ds.Figure4()
	ds.EUI64Exposure()
	ds.DADAudit()
	ds.Tracking()
	for _, dim := range []string{"manufacturer", "os", "year", "category"} {
		ds.GroupBy(dim, 1)
	}
	if !reflect.DeepEqual(zeroObs, DeviceObs{}) {
		t.Errorf("a table wrote the shared zero DeviceObs: %+v", zeroObs)
	}
}
