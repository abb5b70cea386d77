package analysis

import (
	"fmt"
	"net/netip"
	"reflect"
	"slices"
	"testing"

	"v6lab/internal/addr"
	"v6lab/internal/device"
	"v6lab/internal/packet"
)

// named is a DeviceObs in name space: every set as sorted names (a key
// spelled name/type/family) and sorted addresses, so two observations
// compare equal whatever IDs their name tables gave the names.
type named struct {
	Name                                               string
	Category                                           device.Category
	MAC                                                packet.MAC
	NDP, StatelessDHCPv6, StatefulDHCPv6               bool
	LocalV6Data, InternetV6, InternetV4                bool
	EUI64GUAUsed, EUI64DNS, EUI64Data                  bool
	BytesV4, BytesV6                                   int
	StatefulLease                                      netip.Addr
	GUAs, ULAs, LLAs, Used, Probed                     []netip.Addr
	Queries, Responses, Flows, DNSExposed, DataExposed []string
}

// inNames projects d onto names, the table its IDs index.
func inNames(d *DeviceObs, names []string) named {
	n := named{
		Name: d.Name, Category: d.Category, MAC: d.MAC,
		NDP: d.NDP, StatelessDHCPv6: d.StatelessDHCPv6, StatefulDHCPv6: d.StatefulDHCPv6,
		LocalV6Data: d.LocalV6Data, InternetV6: d.InternetV6, InternetV4: d.InternetV4,
		EUI64GUAUsed: d.EUI64GUAUsed, EUI64DNS: d.EUI64DNS, EUI64Data: d.EUI64Data,
		BytesV4: d.BytesV4, BytesV6: d.BytesV6, StatefulLease: d.StatefulLease,
	}
	for _, a := range d.Assigned {
		switch a.Kind {
		case addr.KindGUA:
			n.GUAs = append(n.GUAs, a.Addr)
		case addr.KindULA:
			n.ULAs = append(n.ULAs, a.Addr)
		case addr.KindLLA:
			n.LLAs = append(n.LLAs, a.Addr)
		}
		if a.Used {
			n.Used = append(n.Used, a.Addr)
		}
		if a.Probed {
			n.Probed = append(n.Probed, a.Addr)
		}
	}
	keys := func(set []key) (out []string) {
		for _, k := range set {
			out = append(out, fmt.Sprintf("%s/%v/%v", names[k.name()], k.typ(), k.v6()))
		}
		return out
	}
	ids := func(set []key) (out []string) {
		for _, k := range set {
			out = append(out, names[k.name()])
		}
		return out
	}
	n.Queries, n.Responses, n.Flows = keys(d.queries), keys(d.responses), keys(d.flows)
	n.DNSExposed, n.DataExposed = ids(d.eui64DNS), ids(d.eui64Data)
	return n.normal()
}

// normal sorts and deduplicates every set; empty sets read as nil.
func (n named) normal() named {
	for _, s := range []*[]netip.Addr{&n.GUAs, &n.ULAs, &n.LLAs, &n.Used, &n.Probed} {
		slices.SortFunc(*s, netip.Addr.Compare)
		if *s = slices.Compact(*s); len(*s) == 0 {
			*s = nil
		}
	}
	for _, s := range []*[]string{&n.Queries, &n.Responses, &n.Flows, &n.DNSExposed, &n.DataExposed} {
		slices.Sort(*s)
		if *s = slices.Compact(*s); len(*s) == 0 {
			*s = nil
		}
	}
	return n
}

// merged is the reference the group views are checked against: the
// union of a device's observations across exps, built in name space from
// each experiment's own table; the zero named when no run saw the device.
func merged(exps []*ExpObs, name string) named {
	var out named
	seen := false
	for _, e := range exps {
		d, ok := e.Devices[name]
		if !ok {
			continue
		}
		n := inNames(d, e.names)
		if !seen {
			out.Name, out.Category, out.MAC = n.Name, n.Category, n.MAC
			seen = true
		}
		out.NDP = out.NDP || n.NDP
		out.StatelessDHCPv6 = out.StatelessDHCPv6 || n.StatelessDHCPv6
		out.StatefulDHCPv6 = out.StatefulDHCPv6 || n.StatefulDHCPv6
		out.LocalV6Data = out.LocalV6Data || n.LocalV6Data
		out.InternetV6 = out.InternetV6 || n.InternetV6
		out.InternetV4 = out.InternetV4 || n.InternetV4
		out.EUI64GUAUsed = out.EUI64GUAUsed || n.EUI64GUAUsed
		out.EUI64DNS = out.EUI64DNS || n.EUI64DNS
		out.EUI64Data = out.EUI64Data || n.EUI64Data
		out.BytesV4 += n.BytesV4
		out.BytesV6 += n.BytesV6
		if n.StatefulLease.IsValid() {
			out.StatefulLease = n.StatefulLease
		}
		out.GUAs = append(out.GUAs, n.GUAs...)
		out.ULAs = append(out.ULAs, n.ULAs...)
		out.LLAs = append(out.LLAs, n.LLAs...)
		out.Used = append(out.Used, n.Used...)
		out.Probed = append(out.Probed, n.Probed...)
		out.Queries = append(out.Queries, n.Queries...)
		out.Responses = append(out.Responses, n.Responses...)
		out.Flows = append(out.Flows, n.Flows...)
		out.DNSExposed = append(out.DNSExposed, n.DNSExposed...)
		out.DataExposed = append(out.DataExposed, n.DataExposed...)
	}
	return out.normal()
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
			want := merged(exps, p.Name)
			if got := inNames(ds.Device(g, p.Name), ds.names); !reflect.DeepEqual(got, want) {
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
	if one.views[V6Only]["Nest Camera"] != ds.Exps[1].Devices["Nest Camera"] {
		t.Errorf("a one-experiment view is not the experiment's observations")
	}
	for _, p := range one.Profiles {
		if got, want := inNames(one.Device(AllRuns, p.Name), one.names), merged(one.Exps, p.Name); !reflect.DeepEqual(got, want) {
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
