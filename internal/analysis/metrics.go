package analysis

import (
	"maps"
	"slices"
	"sort"

	"v6lab/internal/addr"
	"v6lab/internal/cloud"
	"v6lab/internal/device"
	"v6lab/internal/dnsmsg"
	"v6lab/internal/paper"
)

// Dataset bundles the observations of all experiments with the active
// measurement outputs, ready for table derivation.
type Dataset struct {
	// Exps holds the per-experiment observations in execution order
	// (ipv4-only, the three ipv6-only runs, the two dual-stack runs).
	Exps []*ExpObs
	// Profiles provides device identity (category, manufacturer, OS,
	// year) for grouping; behaviour always comes from observations.
	Profiles []*device.Profile
	// ActiveAAAA is the §4.3 active-DNS verdict per domain.
	ActiveAAAA map[string]bool
	// Cloud supplies party labels for destination classification.
	Cloud *cloud.Cloud

	// views holds each group's per-device union, indexed by Group. Groups
	// that select the same experiments share one map.
	views [AllRuns + 1]map[string]*DeviceObs
	// names is the dataset's name table: the first experiment's, extended
	// by the names the others add. The views' name sets index it.
	names []string
	// cat maps a device name to its column in paper.CategoryOrder.
	cat map[string]int
}

// Group is a set of stack modes: an experiment belongs to the group when
// its mode is in the set.
type Group uint8

// The experiment groups the tables read.
const (
	V4Only    Group = 1 << device.ModeV4Only
	V6Only    Group = 1 << device.ModeV6Only
	DualStack Group = 1 << device.ModeDual
	V6Enabled       = V6Only | DualStack
	AllRuns         = V4Only | V6Enabled
)

// zeroObs is what a device no run of a group observed reads as.
var zeroObs DeviceObs

// Device returns the device's observations unioned over the group's
// experiments, never nil: a device no run of the group observed reads as
// a shared zero DeviceObs. Callers must not modify the result.
func (ds *Dataset) Device(g Group, name string) *DeviceObs {
	if d := ds.views[g][name]; d != nil {
		return d
	}
	return &zeroObs
}

// halves splits the two-mode groups, the lower mode first.
var halves = map[Group][2]Group{V6Enabled: {V6Only, DualStack}, AllRuns: {V4Only, V6Enabled}}

// buildViews fills ds.names, ds.views and ds.cat. A group's view is folded
// under the modes it shares with the dataset's experiments, so groups that
// select the same experiments fold one union. The first experiment's
// observations are read in place, since its IDs are the dataset's; every
// other experiment is moved onto the dataset's name table once. A view of
// one mode folds its experiments in order, and a view of one experiment is
// that experiment's observations, so a one-experiment fleet home folds
// nothing. A two-mode group merges its halves' views: for experiments in
// mode order, as Exps holds them, that is the fold in experiment order.
func (ds *Dataset) buildViews() {
	var present Group
	for _, e := range ds.Exps {
		present |= 1 << e.Mode
	}
	exps := ds.remap()
	for _, g := range []Group{V4Only, V6Only, DualStack, V6Enabled, AllRuns} {
		key := g & present
		if ds.views[key] != nil {
			ds.views[g] = ds.views[key]
			continue
		}
		var v map[string]*DeviceObs
		if h, ok := halves[g]; ok {
			v = mergeViews(ds.views[h[0]], ds.views[h[1]])
		} else {
			for i, e := range ds.Exps {
				if key&(1<<e.Mode) != 0 {
					v = mergeViews(v, exps[i])
				}
			}
		}
		if v == nil {
			v = map[string]*DeviceObs{}
		}
		ds.views[key], ds.views[g] = v, v
	}
	ds.cat = make(map[string]int, len(ds.Profiles))
	for _, p := range ds.Profiles {
		ds.cat[p.Name] = slices.Index(paper.CategoryOrder, string(p.Category))
	}
}

// remap builds ds.names, the first experiment's table extended by the
// names the others add, and returns every experiment's observations over
// it: the first experiment's as they are, the others' with their name
// sets moved onto the dataset's IDs.
func (ds *Dataset) remap() []map[string]*DeviceObs {
	out := make([]map[string]*DeviceObs, len(ds.Exps))
	if len(ds.Exps) == 0 {
		return out
	}
	out[0] = ds.Exps[0].Devices
	ds.names = slices.Clip(ds.Exps[0].names) // appends must not reach the experiment's table
	index := make(map[string]uint32, len(ds.names))
	for i, n := range ds.names {
		index[n] = uint32(i)
	}
	for i, e := range ds.Exps[1:] {
		ids := make([]uint32, len(e.names))
		for j, n := range e.names {
			id, ok := index[n]
			if !ok {
				id = uint32(len(ds.names))
				index[n] = id
				ds.names = append(ds.names, n)
			}
			ids[j] = id
		}
		v := make(map[string]*DeviceObs, len(e.Devices))
		for name, d := range e.Devices {
			m := *d
			for _, set := range []*[]key{&m.queries, &m.responses, &m.flows, &m.eui64DNS, &m.eui64Data} {
				*set = remapped(*set, ids)
			}
			v[name] = &m
		}
		out[i+1] = v
	}
	return out
}

// remapped moves a set's names onto another table; ids maps the IDs.
func remapped(set []key, ids []uint32) []key {
	out := make([]key, len(set))
	for i, k := range set {
		out[i] = mkkey(ids[k.name()], k.typ(), k.v6())
	}
	return sorted(out)
}

// mergeViews returns the per-device union of two views, a's experiments
// running before b's. A device only one side saw is that side's
// observations, read in place; a nil a yields b itself.
func mergeViews(a, b map[string]*DeviceObs) map[string]*DeviceObs {
	if a == nil {
		return b
	}
	v := maps.Clone(a)
	for name, d := range b {
		if o := v[name]; o != nil {
			d = o.merge(d)
		}
		v[name] = d
	}
	return v
}

// merge returns the union of two observations of a device, o's
// experiments running before d's: o's MAC wins, d's stateful lease wins
// when valid, byte counts sum, and every set is the union of both.
func (o *DeviceObs) merge(d *DeviceObs) *DeviceObs {
	m := *o
	m.NDP = o.NDP || d.NDP
	if d.StatefulLease.IsValid() {
		m.StatefulLease = d.StatefulLease
	}
	m.StatelessDHCPv6 = o.StatelessDHCPv6 || d.StatelessDHCPv6
	m.StatefulDHCPv6 = o.StatefulDHCPv6 || d.StatefulDHCPv6
	m.LocalV6Data = o.LocalV6Data || d.LocalV6Data
	m.InternetV6 = o.InternetV6 || d.InternetV6
	m.InternetV4 = o.InternetV4 || d.InternetV4
	m.BytesV4 += d.BytesV4
	m.BytesV6 += d.BytesV6
	m.EUI64DNS = o.EUI64DNS || d.EUI64DNS
	m.EUI64Data = o.EUI64Data || d.EUI64Data
	m.EUI64GUAUsed = o.EUI64GUAUsed || d.EUI64GUAUsed
	m.queries, m.responses, m.flows = union(o.queries, d.queries), union(o.responses, d.responses), union(o.flows, d.flows)
	m.eui64DNS, m.eui64Data = union(o.eui64DNS, d.eui64DNS), union(o.eui64Data, d.eui64Data)
	m.Assigned = unionFunc(o.Assigned, d.Assigned, func(x, y AddrObs) int { return x.Addr.Compare(y.Addr) },
		func(x, y AddrObs) AddrObs {
			x.Used, x.Probed = x.Used || y.Used, x.Probed || y.Probed
			return x
		})
	return &m
}

// BaselineV6Only returns the first IPv6-only run (the functionality
// reference).
func (ds *Dataset) BaselineV6Only() *ExpObs {
	for _, e := range ds.Exps {
		if e.Mode == device.ModeV6Only {
			return e
		}
	}
	return nil
}

// vecOver counts devices satisfying pred per category, over the group's
// view.
func (ds *Dataset) vecOver(g Group, pred func(*DeviceObs) bool) paper.Vec {
	var v paper.Vec
	for _, p := range ds.Profiles {
		if pred(ds.Device(g, p.Name)) {
			v[ds.cat[p.Name]]++
		}
	}
	return v
}

// --- Table 3 / Figure 2 ---

// Funnel is the IPv6-only feature funnel.
type Funnel struct {
	Devices, NoIPv6, NDP, NDPNoAddr, Addr, GUA, AddrNoDNS,
	DNSAAAAReq, AAAAResp, DNSNoData, InternetData, DataNotFunc, Functional paper.Vec
}

// Table3 computes the IPv6-only funnel from the three v6-only runs.
func (ds *Dataset) Table3() Funnel {
	base := ds.BaselineV6Only()
	yes := true
	var f Funnel
	f.Devices = paper.DevicesPerCategory
	f.NDP = ds.vecOver(V6Only, func(d *DeviceObs) bool { return d.NDP })
	f.Addr = ds.vecOver(V6Only, func(d *DeviceObs) bool { return len(d.Assigned) > 0 })
	f.GUA = ds.vecOver(V6Only, func(d *DeviceObs) bool { return d.HasAddr(addr.KindGUA) })
	f.DNSAAAAReq = ds.vecOver(V6Only, func(d *DeviceObs) bool { return d.QueriedAAAA(&yes) })
	f.AAAAResp = ds.vecOver(V6Only, func(d *DeviceObs) bool { return d.GotAAAAResponse(&yes) })
	f.InternetData = ds.vecOver(V6Only, func(d *DeviceObs) bool { return d.InternetV6 })
	for _, p := range ds.Profiles {
		ci := ds.cat[p.Name]
		d := ds.Device(V6Only, p.Name)
		if !d.NDP {
			f.NoIPv6[ci]++
			continue
		}
		if len(d.Assigned) == 0 {
			f.NDPNoAddr[ci]++
		} else if !d.QueriedAAAA(&yes) {
			f.AddrNoDNS[ci]++
		} else if !d.InternetV6 {
			f.DNSNoData[ci]++
		}
		functional := base != nil && base.Functional[p.Name]
		if functional {
			f.Functional[ci]++
		} else if d.InternetV6 {
			f.DataNotFunc[ci]++
		}
	}
	return f
}

// --- Table 4: dual-stack deltas ---

// Delta holds dual-stack-minus-IPv6-only feature differences.
type Delta struct {
	NDP, Addr, GUA, AAAAReq, AAAAResp, InternetData paper.Vec
}

// Table4 compares the dual-stack runs against the IPv6-only runs.
func (ds *Dataset) Table4() Delta {
	diff := func(pred func(*DeviceObs) bool) paper.Vec {
		a := ds.vecOver(DualStack, pred)
		b := ds.vecOver(V6Only, pred)
		var out paper.Vec
		for i := range out {
			out[i] = a[i] - b[i]
		}
		return out
	}
	return Delta{
		NDP:          diff(func(d *DeviceObs) bool { return d.NDP }),
		Addr:         diff(func(d *DeviceObs) bool { return len(d.Assigned) > 0 }),
		GUA:          diff(func(d *DeviceObs) bool { return d.HasAddr(addr.KindGUA) }),
		AAAAReq:      diff(func(d *DeviceObs) bool { return d.QueriedAAAA(nil) }),
		AAAAResp:     diff(func(d *DeviceObs) bool { return d.GotAAAAResponse(nil) }),
		InternetData: diff(func(d *DeviceObs) bool { return d.InternetV6 }),
	}
}

// --- Table 5: union feature support ---

// Features is the union feature-support table.
type Features struct {
	Addr, StatefulDHCPv6, GUA, ULA, LLA, EUI64,
	DNSOverV6, AOnlyInV6, AAAAReq, V4OnlyAAAAReq, AAAAResp, AAAAReqNoRes, StatelessDHCPv6,
	V6Trans, InternetTrans, LocalTrans paper.Vec
}

// feature is a Table 5 row: a named predicate over the v6-enabled view.
type feature struct {
	Name string
	Pred func(*DeviceObs) bool
}

// featurePreds lists the Table 5 rows (also reused by the Table 8/12
// groupings).
func featurePreds() []feature {
	no := false
	return []feature{
		{"IPv6 Addr", func(d *DeviceObs) bool { return len(d.Assigned) > 0 }},
		{"Stateful DHCPv6", func(d *DeviceObs) bool { return d.StatefulDHCPv6 }},
		{"GUA", func(d *DeviceObs) bool { return d.HasAddr(addr.KindGUA) }},
		{"ULA", func(d *DeviceObs) bool { return d.HasAddr(addr.KindULA) }},
		{"LLA", func(d *DeviceObs) bool { return d.HasAddr(addr.KindLLA) }},
		{"EUI-64 Addr", func(d *DeviceObs) bool { return hasEUI64Addr(d) }},
		{"DNS Over IPv6", func(d *DeviceObs) bool { return d.DNSOverV6() }},
		{"A-only Request in IPv6", func(d *DeviceObs) bool { return aOnlyInV6(d) }},
		{"AAAA Request (v4 or v6)", func(d *DeviceObs) bool { return d.QueriedAAAA(nil) }},
		{"IPv4-only AAAA Request", func(d *DeviceObs) bool { return d.QueriedAAAA(&no) }},
		{"AAAA Response", func(d *DeviceObs) bool { return d.GotAAAAResponse(nil) }},
		{"AAAA Req No AAAA Res", func(d *DeviceObs) bool { return aaaaReqNoRes(d) }},
		{"Stateless DHCPv6", func(d *DeviceObs) bool { return d.StatelessDHCPv6 }},
		{"IPv6 TCP/UDP Trans", func(d *DeviceObs) bool { return d.InternetV6 || d.LocalV6Data }},
		{"Internet Trans", func(d *DeviceObs) bool { return d.InternetV6 }},
		{"Local Trans", func(d *DeviceObs) bool { return d.LocalV6Data }},
	}
}

// Table5 computes union feature support per category.
func (ds *Dataset) Table5() Features {
	var f Features
	rows := featurePreds()
	dst := []*paper.Vec{
		&f.Addr, &f.StatefulDHCPv6, &f.GUA, &f.ULA, &f.LLA, &f.EUI64,
		&f.DNSOverV6, &f.AOnlyInV6, &f.AAAAReq, &f.V4OnlyAAAAReq, &f.AAAAResp,
		&f.AAAAReqNoRes, &f.StatelessDHCPv6, &f.V6Trans, &f.InternetTrans, &f.LocalTrans,
	}
	for i, row := range rows {
		*dst[i] = ds.vecOver(V6Enabled, row.Pred)
	}
	return f
}

func hasEUI64Addr(d *DeviceObs) bool {
	return slices.ContainsFunc(d.Assigned, func(a AddrObs) bool { return addr.EUI64MatchesMAC(a.Addr, d.MAC) })
}

// aOnlyInV6: the device queried some name with only A (never AAAA) over
// the v6 resolver.
func aOnlyInV6(d *DeviceObs) bool { return slices.ContainsFunc(d.queries, d.aOnlyV6) }

// aOnlyV6 reports an A question over the v6 resolver for a name the
// device never asked AAAA for over it.
func (d *DeviceObs) aOnlyV6(k key) bool {
	return k.v6() && k.typ() == dnsmsg.TypeA && !has(d.queries, mkkey(k.name(), dnsmsg.TypeAAAA, true))
}

// v4OnlyAAAA reports an AAAA question for a name the device never asked
// AAAA for over the v6 resolver.
func (d *DeviceObs) v4OnlyAAAA(k key) bool {
	return isAAAA(k) && !has(d.queries, mkkey(k.name(), dnsmsg.TypeAAAA, true))
}

func isAAAA(k key) bool { return k.typ() == dnsmsg.TypeAAAA }

func aaaaReqNoRes(d *DeviceObs) bool {
	return slices.ContainsFunc(d.queries, func(k key) bool {
		return isAAAA(k) && !has(d.responses, mkkey(k.name(), dnsmsg.TypeAAAA, true)) &&
			!has(d.responses, mkkey(k.name(), dnsmsg.TypeAAAA, false))
	})
}

// --- Table 6: inventories ---

// Inventory holds the address and distinct-name counts plus volume
// fractions.
type Inventory struct {
	Addrs, GUAs, ULAs, LLAs                              paper.Vec
	AAAAReqNames, AOnlyV6Names, V4OnlyAAAANames, AAAARes paper.Vec
	V6FracPct                                            [paper.NumCategories]float64
	V6FracTotalPct                                       float64
}

// Table6 computes the inventories over the v6-enabled runs and the volume
// fractions over the dual-stack runs.
func (ds *Dataset) Table6() Inventory {
	var inv Inventory
	for _, p := range ds.Profiles {
		ci := ds.cat[p.Name]
		d := ds.Device(V6Enabled, p.Name)
		n, total := d.slaac()
		inv.GUAs[ci] += n[addr.KindGUA]
		inv.ULAs[ci] += n[addr.KindULA]
		inv.LLAs[ci] += n[addr.KindLLA]
		inv.Addrs[ci] += total
		inv.AAAAReqNames[ci] += countNames(d.queries, isAAAA)
		inv.AOnlyV6Names[ci] += countNames(d.queries, d.aOnlyV6)
		inv.V4OnlyAAAANames[ci] += countNames(d.queries, d.v4OnlyAAAA)
		inv.AAAARes[ci] += countNames(d.responses, isAAAA)
	}
	// Volume fractions from the dual-stack runs.
	var v6, all [paper.NumCategories]float64
	for _, p := range ds.Profiles {
		ci := ds.cat[p.Name]
		d := ds.Device(DualStack, p.Name)
		v6[ci] += float64(d.BytesV6)
		all[ci] += float64(d.BytesV4 + d.BytesV6)
	}
	var totV6, totAll float64
	for ci := range paper.CategoryOrder {
		if all[ci] > 0 {
			inv.V6FracPct[ci] = 100 * v6[ci] / all[ci]
		}
		totV6 += v6[ci]
		totAll += all[ci]
	}
	if totAll > 0 {
		inv.V6FracTotalPct = 100 * totV6 / totAll
	}
	return inv
}

// --- Figure 3: CDFs ---

// CDFs holds the per-device distributions behind Figure 3.
type CDFs struct {
	// AddrsPerDevice and AAAANamesPerDevice are sorted ascending.
	AddrsPerDevice, AAAANamesPerDevice []int
}

// Figure3 computes the distribution data.
func (ds *Dataset) Figure3() CDFs {
	var out CDFs
	for _, p := range ds.Profiles {
		d := ds.Device(V6Enabled, p.Name)
		if _, n := d.slaac(); n > 0 {
			out.AddrsPerDevice = append(out.AddrsPerDevice, n)
		}
		if names := countNames(d.queries, isAAAA); names > 0 {
			out.AAAANamesPerDevice = append(out.AAAANamesPerDevice, names)
		}
	}
	sort.Ints(out.AddrsPerDevice)
	sort.Ints(out.AAAANamesPerDevice)
	return out
}

// TopShare reports the fraction of the total held by the top n values.
func TopShare(sorted []int, n int) float64 {
	total, top := 0, 0
	for i, v := range sorted {
		total += v
		if i >= len(sorted)-n {
			top += v
		}
	}
	if total == 0 {
		return 0
	}
	return float64(top) / float64(total)
}

// --- Figure 4: per-device volume fractions ---

// VolumeShare is one device's dual-stack IPv6 volume fraction.
type VolumeShare struct {
	Device     string
	Functional bool
	FracPct    float64
}

// Figure4 lists devices with global IPv6 data in dual-stack, sorted by
// descending fraction.
func (ds *Dataset) Figure4() []VolumeShare {
	base := ds.BaselineV6Only()
	var out []VolumeShare
	for _, p := range ds.Profiles {
		d := ds.Device(DualStack, p.Name)
		if !d.InternetV6 || d.BytesV4+d.BytesV6 == 0 {
			continue
		}
		out = append(out, VolumeShare{
			Device:     p.Name,
			Functional: base != nil && base.Functional[p.Name],
			FracPct:    100 * float64(d.BytesV6) / float64(d.BytesV4+d.BytesV6),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FracPct > out[j].FracPct })
	return out
}
