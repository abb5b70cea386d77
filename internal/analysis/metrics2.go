package analysis

import (
	"sort"
	"strconv"
	"strings"

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

// domains returns the sorted IDs of every destination name d shows: its
// non-local DNS questions and its contacted destinations.
func (ds *Dataset) domains(d *DeviceObs) []uint32 {
	var out []uint32
	for _, k := range d.queries {
		if !strings.HasSuffix(ds.names[k.name()], ".local") {
			out = append(out, k.name())
		}
	}
	for _, f := range d.flows {
		out = append(out, f.name())
	}
	return sorted(out)
}

// Table7 computes AAAA readiness by category, split functional versus
// non-functional, plus the same split for manufacturers with at least
// minDevices devices.
func (ds *Dataset) Table7(minDevices int) (funcRows, nonFuncRows []Readiness, mfrFunc, mfrNonFunc []Readiness) {
	base := ds.BaselineV6Only()
	type group struct {
		name       string
		functional bool
	}
	cats, mfrs := map[group]*Readiness{}, map[group]*Readiness{}
	add := func(m map[group]*Readiness, g group, domains, aaaa int) {
		if m[g] == nil {
			m[g] = &Readiness{Group: g.name}
		}
		m[g].Devices++
		m[g].Domains += domains
		m[g].AAAA += aaaa
	}
	var names []string
	for _, p := range ds.Profiles {
		functional := base != nil && base.Functional[p.Name]
		domains := ds.domains(ds.Device(AllRuns, p.Name))
		na := 0
		for _, id := range domains {
			if ds.ActiveAAAA[ds.names[id]] {
				na++
			}
		}
		add(cats, group{string(p.Category), functional}, len(domains), na)
		add(mfrs, group{p.Manufacturer, functional}, len(domains), na)
		names = append(names, p.Manufacturer)
	}
	for _, c := range paper.CategoryOrder {
		if r := cats[group{c, true}]; r != nil {
			funcRows = append(funcRows, *r)
		}
		if r := cats[group{c, false}]; r != nil {
			nonFuncRows = append(nonFuncRows, *r)
		}
	}
	for _, m := range sorted(names) {
		if r := mfrs[group{m, true}]; r != nil {
			mfrFunc = append(mfrFunc, *r)
		}
		if r := mfrs[group{m, false}]; r != nil && r.Devices >= minDevices {
			mfrNonFunc = append(mfrNonFunc, *r)
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
		universe := ds.domains(ds.Device(AllRuns, p.Name))
		sw.TotalDest[ci] += len(universe)

		contacted := func(o *DeviceObs, name uint32, v6 bool) bool {
			return has(o.flows, mkkey(name, 0, v6))
		}
		for _, name := range universe {
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
			if inDualV4 && !inDualV6 && !everV6 && ds.ActiveAAAA[ds.names[name]] {
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
	return eui64Exposure(ds.Profiles, ds.views[V6Enabled], ds.names, ds.Cloud)
}

// EUI64Exposure computes the funnel over this run's observations alone.
func (e *ExpObs) EUI64Exposure(profiles []*device.Profile, cl *cloud.Cloud) EUI64Report {
	return eui64Exposure(profiles, e.Devices, e.names, cl)
}

func eui64Exposure(profiles []*device.Profile, devs map[string]*DeviceObs, names []string, cl *cloud.Cloud) EUI64Report {
	var r EUI64Report
	countParties := func(set []key, first, third, support *int) {
		for _, k := range set {
			party, _ := DomainParty(cl, names[k.name()])
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
	for _, p := range profiles {
		d := devs[p.Name]
		if d == nil || !d.EUI64GUAFromAssigned() {
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
			r.DataDomains += len(d.eui64Data)
			countParties(d.eui64Data, &r.DataFirst, &r.DataThird, &r.DataSupport)
		case d.EUI64DNS:
			r.DNS++
			r.DNSOnlyDevices = append(r.DNSOnlyDevices, p.Name)
			r.DNSNames += len(d.eui64DNS)
			countParties(d.eui64DNS, &r.DNSFirst, &r.DNSThird, &r.DNSSupport)
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
func (ds *Dataset) DADAudit() DADReport { return dadAudit(ds.Profiles, ds.views[V6Enabled]) }

// DADAudit runs the audit over this run's observations alone.
func (e *ExpObs) DADAudit(profiles []*device.Profile) DADReport {
	return dadAudit(profiles, e.Devices)
}

func dadAudit(profiles []*device.Profile, devs map[string]*DeviceObs) DADReport {
	var r DADReport
	for _, p := range profiles {
		d := devs[p.Name]
		if d == nil {
			continue
		}
		skipped, probed := 0, 0
		for _, a := range d.Assigned {
			switch {
			case a.Addr == d.StatefulLease: // server-assigned, outside the SLAAC audit
			case a.Probed:
				probed++
			default:
				skipped++
				switch a.Kind {
				case addr.KindGUA:
					r.GUAsNoDAD++
				case addr.KindULA:
					r.ULAsNoDAD++
				case addr.KindLLA:
					r.LLAsNoDAD++
				}
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
		v6Names := ds.domains(ds.Device(V6Only, p.Name))
		for _, f := range ds.Device(V4Only, p.Name).flows {
			if has(v6Names, f.name()) {
				continue
			}
			r.V4OnlyDomains++
			name := ds.names[f.name()]
			sld := dnsmsg.SLD(name)
			slds[sld] = true
			if party, tracker := DomainParty(ds.Cloud, name); party == cloud.PartyThird || tracker {
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
		row.AAAANames += countNames(d.queries, isAAAA)
		n, total := d.slaac()
		row.Addrs += total
		row.GUAs += n[addr.KindGUA]
		row.ULAs += n[addr.KindULA]
		row.LLAs += n[addr.KindLLA]
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
	if y >= 2017 && y <= 2024 && y != 2020 {
		return strconv.Itoa(y)
	}
	return "?"
}
