package analysis

import (
	"sort"

	"v6lab/internal/addr"
	"v6lab/internal/cloud"
	"v6lab/internal/device"
	"v6lab/internal/dnsmsg"
	"v6lab/internal/paper"
)

// --- Table 7: destination AAAA readiness ---

// Readiness summarizes destination AAAA readiness for one group.
type Readiness struct {
	Group   string
	Devices int
	Domains int
	AAAA    int
}

// Pct returns the AAAA-ready percentage.
func (r Readiness) Pct() float64 {
	if r.Domains == 0 {
		return 0
	}
	return 100 * float64(r.AAAA) / float64(r.Domains)
}

// deviceDomains returns every destination name a device used across all
// experiments (DNS queries plus contacted destinations).
func (ds *Dataset) deviceDomains(name string) map[string]bool {
	d := ds.Device(AllRuns, name)
	out := d.AllDNSNames()
	for fk := range d.InternetFlows {
		out[fk.Domain] = true
	}
	return out
}

// Table7 computes AAAA readiness by category, split functional versus
// non-functional, plus the same split for manufacturers with at least
// minDevices devices.
func (ds *Dataset) Table7(minDevices int) (funcRows, nonFuncRows []Readiness, mfrFunc, mfrNonFunc []Readiness) {
	base := ds.BaselineV6Only()
	type agg struct{ devices, domains, aaaa int }
	catAgg := map[string]map[bool]*agg{}
	mfrAgg := map[string]map[bool]*agg{}
	get := func(m map[string]map[bool]*agg, key string, functional bool) *agg {
		if m[key] == nil {
			m[key] = map[bool]*agg{true: {}, false: {}}
		}
		return m[key][functional]
	}
	for _, p := range ds.Profiles {
		functional := base != nil && base.Functional[p.Name]
		domains := ds.deviceDomains(p.Name)
		na := 0
		for n := range domains {
			if ds.ActiveAAAA[n] {
				na++
			}
		}
		for _, a := range []*agg{get(catAgg, string(p.Category), functional), get(mfrAgg, p.Manufacturer, functional)} {
			a.devices++
			a.domains += len(domains)
			a.aaaa += na
		}
	}
	for _, c := range paper.CategoryOrder {
		for _, functional := range []bool{true, false} {
			a := get(catAgg, c, functional)
			if a.devices == 0 {
				continue
			}
			row := Readiness{Group: c, Devices: a.devices, Domains: a.domains, AAAA: a.aaaa}
			if functional {
				funcRows = append(funcRows, row)
			} else {
				nonFuncRows = append(nonFuncRows, row)
			}
		}
	}
	var mfrs []string
	for m := range mfrAgg {
		mfrs = append(mfrs, m)
	}
	sort.Strings(mfrs)
	for _, m := range mfrs {
		for _, functional := range []bool{true, false} {
			a := get(mfrAgg, m, functional)
			if a.devices == 0 {
				continue
			}
			row := Readiness{Group: m, Devices: a.devices, Domains: a.domains, AAAA: a.aaaa}
			switch {
			case functional:
				mfrFunc = append(mfrFunc, row)
			case a.devices >= minDevices:
				mfrNonFunc = append(mfrNonFunc, row)
			}
		}
	}
	return funcRows, nonFuncRows, mfrFunc, mfrNonFunc
}

// --- Table 9: destination IP-version switching ---

// Switching holds the dual-stack destination transition statistics.
type Switching struct {
	V6Dest, V4Dest, TotalDest paper.Vec
	CommonV4, CommonV6        paper.Vec
	V4PartialToV6, V4FullToV6 paper.Vec
	V6PartialToV4, V6FullToV4 paper.Vec
	V4OnlyWithAAAA            paper.Vec
}

// Table9 classifies every destination's family usage across the three
// network types.
func (ds *Dataset) Table9() Switching {
	var sw Switching
	for _, p := range ds.Profiles {
		ci := ds.cat[p.Name]
		v4only := ds.Device(V4Only, p.Name)
		v6only := ds.Device(V6Only, p.Name)
		dual := ds.Device(DualStack, p.Name)
		// Universe: every name seen from this device (queries + contacts).
		universe := ds.deviceDomains(p.Name)
		sw.TotalDest[ci] += len(universe)

		contacted := func(o *DeviceObs, name string, v6 bool) bool {
			return o.InternetFlows[FlowKey{Domain: name, V6: v6}]
		}
		for name := range universe {
			everV6 := contacted(v6only, name, true) || contacted(dual, name, true) || contacted(v4only, name, true)
			everV4 := contacted(v4only, name, false) || contacted(dual, name, false) || contacted(v6only, name, false)
			if everV6 {
				sw.V6Dest[ci]++
			}
			if everV4 {
				sw.V4Dest[ci]++
			}
			// v4-only-run ∩ dual common destinations.
			inV4Run := contacted(v4only, name, false)
			inDualV4 := contacted(dual, name, false)
			inDualV6 := contacted(dual, name, true)
			if inV4Run && (inDualV4 || inDualV6) {
				sw.CommonV4[ci]++
				switch {
				case inDualV4 && inDualV6:
					sw.V4PartialToV6[ci]++
				case inDualV6:
					sw.V4FullToV6[ci]++
				}
			}
			// v6-only-run ∩ dual.
			inV6Run := contacted(v6only, name, true)
			if inV6Run && (inDualV4 || inDualV6) {
				sw.CommonV6[ci]++
				switch {
				case inDualV4 && inDualV6:
					sw.V6PartialToV4[ci]++
				case inDualV4:
					sw.V6FullToV4[ci]++
				}
			}
			// IPv4-only destinations in dual-stack with AAAA records —
			// excluding destinations the device reached over v6 in other
			// runs (those are the "fully switching" rows above).
			if inDualV4 && !inDualV6 && !everV6 && ds.ActiveAAAA[name] {
				sw.V4OnlyWithAAAA[ci]++
			}
		}
	}
	return sw
}

// --- Figure 5: EUI-64 exposure ---

// EUI64Report is the privacy funnel of §5.4.1.
type EUI64Report struct {
	Assign, Use, DNS, Data int
	// Domain exposure by party for the data devices and the DNS-only
	// devices.
	DataDomains, DataFirst, DataThird, DataSupport int
	DNSNames, DNSFirst, DNSThird, DNSSupport       int
	// Devices lists the exposed devices for the report.
	DataDevices, DNSOnlyDevices []string
}

// EUI64Exposure computes the funnel over the union of v6-enabled runs.
func (ds *Dataset) EUI64Exposure() EUI64Report {
	var r EUI64Report
	countParties := func(names map[string]bool, first, third, support *int) {
		for n := range names {
			party, _ := DomainParty(ds.Cloud, n)
			switch party {
			case cloud.PartyFirst:
				*first++
			case cloud.PartyThird:
				*third++
			case cloud.PartySupport:
				*support++
			}
		}
	}
	for _, p := range ds.Profiles {
		d := ds.Device(V6Enabled, p.Name)
		if !d.EUI64GUAFromAssigned() {
			continue
		}
		r.Assign++
		if d.EUI64GUAUsed {
			r.Use++
		}
		switch {
		case d.EUI64Data:
			r.DNS++ // the data devices also expose via DNS
			r.Data++
			r.DataDevices = append(r.DataDevices, p.Name)
			r.DataDomains += len(d.EUI64DataDomains)
			countParties(d.EUI64DataDomains, &r.DataFirst, &r.DataThird, &r.DataSupport)
		case d.EUI64DNS:
			r.DNS++
			r.DNSOnlyDevices = append(r.DNSOnlyDevices, p.Name)
			r.DNSNames += len(d.EUI64DNSNames)
			countParties(d.EUI64DNSNames, &r.DNSFirst, &r.DNSThird, &r.DNSSupport)
		}
	}
	return r
}

// --- §5.2.1: DAD audit ---

// DADReport is the duplicate-address-detection compliance audit.
type DADReport struct {
	DevicesSkipping                 int
	GUAsNoDAD, ULAsNoDAD, LLAsNoDAD int
	DevicesNeverDAD                 int
	NonCompliant                    []string
}

// DADAudit checks every SLAAC address's first use against prior DAD
// probes, over the union of v6-enabled runs.
func (ds *Dataset) DADAudit() DADReport {
	var r DADReport
	for _, p := range ds.Profiles {
		d := ds.Device(V6Enabled, p.Name)
		if len(d.Assigned) == 0 {
			continue
		}
		skipped, probed := 0, 0
		for a, k := range d.Assigned {
			if a == d.StatefulLease {
				continue // server-assigned, outside the SLAAC audit
			}
			if d.DADProbed[a] {
				probed++
				continue
			}
			skipped++
			switch k {
			case addr.KindGUA:
				r.GUAsNoDAD++
			case addr.KindULA:
				r.ULAsNoDAD++
			case addr.KindLLA:
				r.LLAsNoDAD++
			}
		}
		if skipped > 0 {
			r.DevicesSkipping++
			if probed == 0 {
				r.DevicesNeverDAD++
				r.NonCompliant = append(r.NonCompliant, p.Name)
			}
		}
	}
	sort.Strings(r.NonCompliant)
	return r
}

// --- §5.4.3: tracking domains ---

// TrackingReport compares the functional devices' destinations between the
// IPv4-only and IPv6-only runs.
type TrackingReport struct {
	V4OnlyDomains  int
	V4OnlySLDs     int
	ThirdPartySLDs int
	TrackerSLDs    []string
}

// Tracking finds domains the functional devices contact in IPv4-only but
// not in IPv6-only networks.
func (ds *Dataset) Tracking() TrackingReport {
	var r TrackingReport
	base := ds.BaselineV6Only()
	slds := map[string]bool{}
	thirdSLDs := map[string]bool{}
	for _, p := range ds.Profiles {
		if base == nil || !base.Functional[p.Name] {
			continue
		}
		dv6 := ds.Device(V6Only, p.Name)
		v6Names := dv6.AllDNSNames()
		for fk := range dv6.InternetFlows {
			v6Names[fk.Domain] = true
		}
		for fk := range ds.Device(V4Only, p.Name).InternetFlows {
			if v6Names[fk.Domain] {
				continue
			}
			r.V4OnlyDomains++
			sld := dnsmsg.SLD(fk.Domain)
			slds[sld] = true
			if party, tracker := DomainParty(ds.Cloud, fk.Domain); party == cloud.PartyThird || tracker {
				thirdSLDs[sld] = true
			}
		}
	}
	r.V4OnlySLDs = len(slds)
	r.ThirdPartySLDs = len(thirdSLDs)
	for s := range thirdSLDs {
		r.TrackerSLDs = append(r.TrackerSLDs, s)
	}
	sort.Strings(r.TrackerSLDs)
	return r
}

// --- Tables 8, 12, 13: groupings ---

// GroupRow is one grouped feature-support row set.
type GroupRow struct {
	Group    string
	Devices  int
	Features map[string]int
	// Addresses / query-name inventories (Table 13).
	Addrs, GUAs, ULAs, LLAs, AAAANames int
	FunctionalV6                       int
}

// GroupBy computes union feature support grouped by an identity dimension
// ("manufacturer", "os", "year"), including groups of at least minSize.
func (ds *Dataset) GroupBy(dim string, minSize int) []GroupRow {
	base := ds.BaselineV6Only()
	rowsByGroup := map[string]*GroupRow{}
	keyFor := func(p *device.Profile) string {
		switch dim {
		case "manufacturer":
			return p.Manufacturer
		case "os":
			return p.OS
		case "year":
			return yearLabel(p.Year)
		}
		return string(p.Category)
	}
	preds := featurePreds()
	for _, p := range ds.Profiles {
		key := keyFor(p)
		row, ok := rowsByGroup[key]
		if !ok {
			row = &GroupRow{Group: key, Features: map[string]int{}}
			rowsByGroup[key] = row
		}
		row.Devices++
		d := ds.Device(V6Enabled, p.Name)
		for _, pr := range preds {
			if pr.Pred(d) {
				row.Features[pr.Name]++
			}
		}
		if base != nil && base.Functional[p.Name] {
			row.FunctionalV6++
		}
		names := map[string]bool{}
		for k := range d.Queries {
			if k.Type == dnsmsg.TypeAAAA {
				names[k.Name] = true
			}
		}
		row.AAAANames += len(names)
		for a, k := range d.Assigned {
			if a == d.StatefulLease {
				continue
			}
			row.Addrs++
			switch k {
			case addr.KindGUA:
				row.GUAs++
			case addr.KindULA:
				row.ULAs++
			case addr.KindLLA:
				row.LLAs++
			}
		}
	}
	var out []GroupRow
	for _, row := range rowsByGroup {
		if row.Devices >= minSize {
			out = append(out, *row)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Devices != out[j].Devices {
			return out[i].Devices > out[j].Devices
		}
		return out[i].Group < out[j].Group
	})
	return out
}

func yearLabel(y int) string {
	return []string{"?", "2017", "2018", "2019", "2021", "2022", "2023", "2024"}[yearIdx(y)]
}

func yearIdx(y int) int {
	switch y {
	case 2017:
		return 1
	case 2018:
		return 2
	case 2019:
		return 3
	case 2021:
		return 4
	case 2022:
		return 5
	case 2023:
		return 6
	case 2024:
		return 7
	}
	return 0
}
