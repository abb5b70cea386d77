package analysis

import (
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

// zeroObs is what a device no run of a group observed reads as; its nil
// maps read as empty.
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

// buildViews fills ds.views and ds.cat. A group's view is folded under
// the modes it shares with the dataset's experiments, so groups that
// select the same experiments fold one union: in a one-experiment fleet
// home, every group holding that experiment's mode reads the same map.
func (ds *Dataset) buildViews() {
	var present Group
	for _, e := range ds.Exps {
		present |= 1 << e.Mode
	}
	for _, g := range []Group{V4Only, V6Only, DualStack, V6Enabled, AllRuns} {
		key := g & present
		if ds.views[key] == nil {
			v := map[string]*DeviceObs{}
			for _, e := range ds.Exps {
				if key&(1<<e.Mode) == 0 {
					continue
				}
				for name, d := range e.Devices {
					out := v[name]
					if out == nil {
						out = newDeviceObs(&device.Profile{Name: d.Name, Category: d.Category}, d.MAC)
						v[name] = out
					}
					out.union(d)
				}
			}
			ds.views[key] = v
		}
		ds.views[g] = ds.views[key]
	}
	ds.cat = make(map[string]int, len(ds.Profiles))
	for _, p := range ds.Profiles {
		ds.cat[p.Name] = slices.Index(paper.CategoryOrder, string(p.Category))
	}
}

// union folds one experiment's observations of the device into o. Folded
// in experiment order, the first experiment's MAC wins (o is created with
// it), the last valid stateful lease wins, and byte counts sum.
func (o *DeviceObs) union(d *DeviceObs) {
	o.NDP = o.NDP || d.NDP
	for a, k := range d.Assigned {
		o.Assigned[a] = k
	}
	for a := range d.Used {
		o.Used[a] = true
	}
	for a := range d.DADProbed {
		o.DADProbed[a] = true
	}
	if d.StatefulLease.IsValid() {
		o.StatefulLease = d.StatefulLease
	}
	o.StatelessDHCPv6 = o.StatelessDHCPv6 || d.StatelessDHCPv6
	o.StatefulDHCPv6 = o.StatefulDHCPv6 || d.StatefulDHCPv6
	for k := range d.Queries {
		o.Queries[k] = true
	}
	for k := range d.Responses {
		o.Responses[k] = true
	}
	for k := range d.InternetFlows {
		o.InternetFlows[k] = true
	}
	o.LocalV6Data = o.LocalV6Data || d.LocalV6Data
	o.InternetV6 = o.InternetV6 || d.InternetV6
	o.InternetV4 = o.InternetV4 || d.InternetV4
	o.BytesV4 += d.BytesV4
	o.BytesV6 += d.BytesV6
	o.EUI64DNS = o.EUI64DNS || d.EUI64DNS
	o.EUI64Data = o.EUI64Data || d.EUI64Data
	o.EUI64GUAUsed = o.EUI64GUAUsed || d.EUI64GUAUsed
	for n := range d.EUI64DNSNames {
		o.EUI64DNSNames[n] = true
	}
	for n := range d.EUI64DataDomains {
		o.EUI64DataDomains[n] = true
	}
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
		NDP:  diff(func(d *DeviceObs) bool { return d.NDP }),
		Addr: diff(func(d *DeviceObs) bool { return len(d.Assigned) > 0 }),
		GUA:  diff(func(d *DeviceObs) bool { return d.HasAddr(addr.KindGUA) }),
		AAAAReq: diff(func(d *DeviceObs) bool {
			return d.QueriedAAAA(nil)
		}),
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

// featurePreds lists the Table 5 rows as named predicates over the
// v6-enabled view (also reused by the Table 8/12 groupings).
func featurePreds() []struct {
	Name string
	Pred func(*DeviceObs) bool
} {
	no := false
	return []struct {
		Name string
		Pred func(*DeviceObs) bool
	}{
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
	for a := range d.Assigned {
		if addr.EUI64MatchesMAC(a, d.MAC) {
			return true
		}
	}
	return false
}

// aOnlyInV6: the device queried some name with only A (never AAAA) over
// the v6 resolver.
func aOnlyInV6(d *DeviceObs) bool {
	for k := range d.Queries {
		if k.OverV6 && k.Type == dnsmsg.TypeA {
			if !d.Queries[QueryKey{Name: k.Name, Type: dnsmsg.TypeAAAA, OverV6: true}] {
				return true
			}
		}
	}
	return false
}

func aaaaReqNoRes(d *DeviceObs) bool {
	for k := range d.Queries {
		if k.Type != dnsmsg.TypeAAAA {
			continue
		}
		answered := d.Responses[QueryKey{Name: k.Name, Type: dnsmsg.TypeAAAA, OverV6: true}] ||
			d.Responses[QueryKey{Name: k.Name, Type: dnsmsg.TypeAAAA, OverV6: false}]
		if !answered {
			return true
		}
	}
	return false
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
		for a, k := range d.Assigned {
			if a == d.StatefulLease {
				continue // IA_NA leases are server-assigned, not SLAAC
			}
			switch k {
			case addr.KindGUA:
				inv.GUAs[ci]++
			case addr.KindULA:
				inv.ULAs[ci]++
			case addr.KindLLA:
				inv.LLAs[ci]++
			}
			inv.Addrs[ci]++
		}
		names := map[string]bool{}
		aOnly := map[string]bool{}
		v4Only := map[string]bool{}
		res := map[string]bool{}
		for k := range d.Queries {
			switch k.Type {
			case dnsmsg.TypeAAAA:
				names[k.Name] = true
				if !d.Queries[QueryKey{Name: k.Name, Type: dnsmsg.TypeAAAA, OverV6: true}] {
					v4Only[k.Name] = true
				}
			case dnsmsg.TypeA:
				if k.OverV6 && !d.Queries[QueryKey{Name: k.Name, Type: dnsmsg.TypeAAAA, OverV6: true}] {
					aOnly[k.Name] = true
				}
			}
		}
		for k := range d.Responses {
			if k.Type == dnsmsg.TypeAAAA {
				res[k.Name] = true
			}
		}
		inv.AAAAReqNames[ci] += len(names)
		inv.AOnlyV6Names[ci] += len(aOnly)
		inv.V4OnlyAAAANames[ci] += len(v4Only)
		inv.AAAARes[ci] += len(res)
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
		n := len(d.Assigned)
		if _, ok := d.Assigned[d.StatefulLease]; ok {
			n-- // server-assigned lease, outside the SLAAC inventory
		}
		if n > 0 {
			out.AddrsPerDevice = append(out.AddrsPerDevice, n)
		}
		names := map[string]bool{}
		for k := range d.Queries {
			if k.Type == dnsmsg.TypeAAAA {
				names[k.Name] = true
			}
		}
		if len(names) > 0 {
			out.AAAANamesPerDevice = append(out.AAAANamesPerDevice, len(names))
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
