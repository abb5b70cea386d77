// Package report renders the reproduction's tables and figures as text, in
// the paper's row/column layout, side by side with the published values.
package report

import (
	"fmt"
	"strings"

	"v6lab/internal/addr"
	"v6lab/internal/analysis"
	"v6lab/internal/experiment"
	"v6lab/internal/paper"
)

// vecRow formats one per-category row with its total.
func vecRow(w *strings.Builder, label string, v paper.Vec) {
	fmt.Fprintf(w, "%-28s", label)
	for _, x := range v {
		fmt.Fprintf(w, "%6d", x)
	}
	fmt.Fprintf(w, " | %5d\n", v.Total())
}

// vecRowVs adds the paper's value for comparison when it differs.
func vecRowVs(w *strings.Builder, label string, got, want paper.Vec) {
	vecRow(w, label, got)
	if got != want {
		fmt.Fprintf(w, "%-28s", "  (paper)")
		for _, x := range want {
			fmt.Fprintf(w, "%6d", x)
		}
		fmt.Fprintf(w, " | %5d\n", want.Total())
	}
}

func header(w *strings.Builder, title string) {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "%-28s", "")
	for _, c := range paper.CategoryOrder {
		short := c
		if len(short) > 5 {
			short = short[:5]
		}
		fmt.Fprintf(w, "%6s", short)
	}
	fmt.Fprintf(w, " | %5s\n", "Total")
}

// Table3 renders the IPv6-only funnel (and Figure 2's ring data).
func Table3(f analysis.Funnel) string {
	var w strings.Builder
	header(&w, "Table 3 — IPv6-only experiments: feature funnel")
	vecRow(&w, "Total # of Device", f.Devices)
	vecRowVs(&w, "- No IPv6", f.NoIPv6, paper.Table3.NoIPv6)
	vecRowVs(&w, "2 IPv6 NDP Traffic", f.NDP, paper.Table3.NDP)
	vecRowVs(&w, "- NDP Traffic No Addr", f.NDPNoAddr, paper.Table3.NDPNoAddr)
	vecRowVs(&w, "3 IPv6 Address", f.Addr, paper.Table3.Addr)
	vecRowVs(&w, "^ Global Unique Address", f.GUA, paper.Table3.GUA)
	vecRowVs(&w, "- Addr but No IPv6 DNS", f.AddrNoDNS, paper.Table3.AddrNoDNS)
	vecRowVs(&w, "4 IPv6 DNS (AAAA Req)", f.DNSAAAAReq, paper.Table3.DNSAAAAReq)
	vecRowVs(&w, "^ AAAA DNS Response", f.AAAAResp, paper.Table3.AAAAResp)
	vecRowVs(&w, "- IPv6 DNS but No Data", f.DNSNoData, paper.Table3.DNSNoData)
	vecRowVs(&w, "5 Internet TCP/UDP Data", f.InternetData, paper.Table3.InternetData)
	vecRowVs(&w, "- IPv6 Data but Not Func", f.DataNotFunc, paper.Table3.DataNotFunc)
	vecRowVs(&w, "6 Functional over IPv6", f.Functional, paper.Table3.Functional)
	return w.String()
}

// Figure2 renders the concentric-ring percentages of Figure 2.
func Figure2(f analysis.Funnel) string {
	var w strings.Builder
	fmt.Fprintf(&w, "Figure 2 — IPv6-only rings (%% of 93 devices)\n")
	rows := []struct {
		label string
		v     paper.Vec
	}{
		{"IPv6 NDP traffic", f.NDP},
		{"IPv6 address", f.Addr},
		{"IPv6 DNS", f.DNSAAAAReq},
		{"Internet data over IPv6", f.InternetData},
		{"Functional", f.Functional},
	}
	for _, r := range rows {
		fmt.Fprintf(&w, "  %-26s %3d devices  %5.1f%%\n", r.label, r.v.Total(),
			100*float64(r.v.Total())/93)
	}
	return w.String()
}

// Table4 renders the dual-stack deltas.
func Table4(d analysis.Delta) string {
	var w strings.Builder
	header(&w, "Table 4 — Dual-stack minus IPv6-only (devices)")
	vecRow(&w, "IPv6 NDP Traffic", d.NDP)
	vecRow(&w, "IPv6 Address", d.Addr)
	vecRow(&w, "Global Unique Address", d.GUA)
	vecRow(&w, "AAAA DNS Request", d.AAAAReq)
	vecRow(&w, "AAAA DNS Response", d.AAAAResp)
	vecRow(&w, "Internet TCP/UDP Data", d.InternetData)
	return w.String()
}

// Table5 renders union feature support.
func Table5(f analysis.Features) string {
	var w strings.Builder
	header(&w, "Table 5 — IPv6 feature support (union of v6-enabled runs)")
	vecRowVs(&w, "IPv6 Addr", f.Addr, paper.Table5.Addr)
	vecRowVs(&w, "Stateful DHCPv6", f.StatefulDHCPv6, paper.Table5.StatefulDHCPv6)
	vecRowVs(&w, "GUA", f.GUA, paper.Table5.GUA)
	vecRowVs(&w, "ULA", f.ULA, paper.Table5.ULA)
	vecRowVs(&w, "LLA", f.LLA, paper.Table5.LLA)
	vecRowVs(&w, "EUI-64 Addr", f.EUI64, paper.Table5.EUI64)
	vecRowVs(&w, "DNS Over IPv6", f.DNSOverV6, paper.Table5.DNSOverV6)
	vecRowVs(&w, "A-only Request in IPv6", f.AOnlyInV6, paper.Table5.AOnlyInV6)
	vecRowVs(&w, "AAAA Request (v4 or v6)", f.AAAAReq, paper.Table5.AAAAReq)
	vecRowVs(&w, "IPv4-only AAAA Request", f.V4OnlyAAAAReq, paper.Table5.V4OnlyAAAAReq)
	vecRowVs(&w, "AAAA Response", f.AAAAResp, paper.Table5.AAAAResp)
	vecRowVs(&w, "AAAA Req No AAAA Res", f.AAAAReqNoRes, paper.Table5.AAAAReqNoRes)
	vecRowVs(&w, "Stateless DHCPv6", f.StatelessDHCPv6, paper.Table5.StatelessDHCPv6)
	vecRowVs(&w, "IPv6 TCP/UDP Trans", f.V6Trans, paper.Table5.V6Trans)
	vecRowVs(&w, "Internet Trans", f.InternetTrans, paper.Table5.InternetTrans)
	vecRowVs(&w, "Local Trans", f.LocalTrans, paper.Table5.LocalTrans)
	return w.String()
}

// Table6 renders the inventories and volume fractions.
func Table6(inv analysis.Inventory) string {
	var w strings.Builder
	header(&w, "Table 6 — Address and distinct-query inventories")
	vecRowVs(&w, "# of IPv6 Addr", inv.Addrs, paper.Table6.IPv6Addrs)
	vecRowVs(&w, "# of GUA Addr", inv.GUAs, paper.Table6.GUAAddrs)
	vecRowVs(&w, "# of ULA Addr", inv.ULAs, paper.Table6.ULAAddrs)
	vecRowVs(&w, "# of LLA Addr", inv.LLAs, paper.Table6.LLAAddrs)
	vecRowVs(&w, "# of AAAA DNS Req", inv.AAAAReqNames, paper.Table6.AAAAReqNames)
	vecRowVs(&w, "# of A-only Req in IPv6", inv.AOnlyV6Names, paper.Table6.AOnlyV6Names)
	vecRowVs(&w, "# of IPv4-only AAAA Req", inv.V4OnlyAAAANames, paper.Table6.V4OnlyAAAANames)
	vecRowVs(&w, "# of AAAA DNS Res", inv.AAAARes, paper.Table6.AAAAResNames)
	fmt.Fprintf(&w, "%-28s", "IPv6 %% of Internet volume")
	for _, pct := range inv.V6FracPct {
		fmt.Fprintf(&w, "%5.1f%%", pct)
	}
	fmt.Fprintf(&w, " | %4.1f%%\n", inv.V6FracTotalPct)
	fmt.Fprintf(&w, "%-28s", "  (paper)")
	for _, pct := range paper.Table6.V6VolumeFracPct {
		fmt.Fprintf(&w, "%5.1f%%", pct)
	}
	fmt.Fprintf(&w, " | %4.1f%%\n", paper.Table6.V6VolumeFracTotalPct)
	return w.String()
}

// Table7 renders destination AAAA readiness.
func Table7(funcRows, nonFuncRows, mfrFunc, mfrNonFunc []analysis.Readiness) string {
	var w strings.Builder
	fmt.Fprintf(&w, "Table 7 — DNS AAAA readiness across destinations\n")
	fmt.Fprintf(&w, "%-24s %8s %9s %10s %8s\n", "Group", "Device #", "Domain #", "AAAA Res #", "AAAA %")
	section := func(title string, rows []analysis.Readiness) {
		fmt.Fprintf(&w, "-- %s --\n", title)
		var dev, dom, aaaa int
		for _, r := range rows {
			fmt.Fprintf(&w, "%-24s %8d %9d %10d %7.1f%%\n", r.Group, r.Devices, r.Domains, r.AAAA, r.Pct())
			dev += r.Devices
			dom += r.Domains
			aaaa += r.AAAA
		}
		total := analysis.Readiness{Group: "Total", Devices: dev, Domains: dom, AAAA: aaaa}
		fmt.Fprintf(&w, "%-24s %8d %9d %10d %7.1f%%\n", total.Group, dev, dom, aaaa, total.Pct())
	}
	section("Functional devices in IPv6-only (by category)", funcRows)
	section("Non-functional devices in IPv6-only (by category)", nonFuncRows)
	section("Functional (by manufacturer)", mfrFunc)
	section("Non-functional (by manufacturer, >=3 devices)", mfrNonFunc)
	fmt.Fprintf(&w, "(paper: functional 728 domains / 533 AAAA = 73.2%%; non-functional 1344 / 418 = 31.1%%)\n")
	return w.String()
}

// Table9 renders the destination switching statistics.
func Table9(sw analysis.Switching) string {
	var w strings.Builder
	header(&w, "Table 9 — Destination IP-version switching (dual-stack)")
	vecRowVs(&w, "# IPv6 Dest. Domain", sw.V6Dest, paper.Table9.V6Dest)
	vecRowVs(&w, "# IPv4 Dest. Domain", sw.V4Dest, paper.Table9.V4Dest)
	vecRowVs(&w, "# of Dest. Domain", sw.TotalDest, paper.Table9.TotalDest)
	vecRow(&w, "common v4-only/dual", sw.CommonV4)
	vecRowVs(&w, "v4 partially -> v6", sw.V4PartialToV6, paper.Table9.V4PartialToV6)
	vecRowVs(&w, "v4 fully -> v6", sw.V4FullToV6, paper.Table9.V4FullToV6)
	vecRow(&w, "common v6-only/dual", sw.CommonV6)
	vecRowVs(&w, "v6 partially -> v4", sw.V6PartialToV4, paper.Table9.V6PartialToV4)
	vecRowVs(&w, "v6 fully -> v4", sw.V6FullToV4, paper.Table9.V6FullToV4)
	vecRowVs(&w, "IPv4-only w/ AAAA", sw.V4OnlyWithAAAA, paper.Table9.V4OnlyWithAAAA)
	return w.String()
}

// Figure3 renders the CDF summaries.
func Figure3(c analysis.CDFs) string {
	var w strings.Builder
	fmt.Fprintf(&w, "Figure 3 — CDFs (summary statistics)\n")
	fmt.Fprintf(&w, "IPv6 addresses per device: n=%d total=%d median=%d p90=%d max=%d top10-share=%.0f%%\n",
		len(c.AddrsPerDevice), sumInts(c.AddrsPerDevice), percentile(c.AddrsPerDevice, 50),
		percentile(c.AddrsPerDevice, 90), maxInt(c.AddrsPerDevice), 100*analysis.TopShare(c.AddrsPerDevice, 10))
	fmt.Fprintf(&w, "AAAA query names per device: n=%d total=%d median=%d p90=%d max=%d top10-share=%.0f%%\n",
		len(c.AAAANamesPerDevice), sumInts(c.AAAANamesPerDevice), percentile(c.AAAANamesPerDevice, 50),
		percentile(c.AAAANamesPerDevice, 90), maxInt(c.AAAANamesPerDevice), 100*analysis.TopShare(c.AAAANamesPerDevice, 10))
	fmt.Fprintf(&w, "(paper: 10 devices hold ~80%% of GUAs / 90%% of ULAs; 10 devices hold ~70%% of queries)\n")
	return w.String()
}

// Figure4 renders the per-device volume fraction bars.
func Figure4(shares []analysis.VolumeShare) string {
	var w strings.Builder
	fmt.Fprintf(&w, "Figure 4 — IPv6 share of Internet volume in dual-stack (per device)\n")
	for _, s := range shares {
		marker := "non-functional in IPv6-only"
		if s.Functional {
			marker = "functional in IPv6-only"
		}
		bar := strings.Repeat("#", int(s.FracPct/2))
		fmt.Fprintf(&w, "%-22s %6.1f%% %-50s (%s)\n", s.Device, s.FracPct, bar, marker)
	}
	return w.String()
}

// Figure5 renders the EUI-64 exposure funnel.
func Figure5(r analysis.EUI64Report) string {
	var w strings.Builder
	fmt.Fprintf(&w, "Figure 5 — GUA EUI-64 exposure\n")
	fmt.Fprintf(&w, "assign=%d use=%d dns=%d data=%d  (paper: use=%d dns=%d data=%d)\n",
		r.Assign, r.Use, r.DNS, r.Data, paper.EUI64.Use, paper.EUI64.DNS, paper.EUI64.Data)
	fmt.Fprintf(&w, "data devices %v exposed %d domains: first=%d third=%d support=%d (paper %d: %d/%d/%d)\n",
		r.DataDevices, r.DataDomains, r.DataFirst, r.DataThird, r.DataSupport,
		paper.EUI64.DataDomains, paper.EUI64.DataFirst, paper.EUI64.DataThird, paper.EUI64.DataSupport)
	fmt.Fprintf(&w, "dns-only devices %v queried %d names: first=%d third=%d support=%d (paper %d: %d/%d/%d)\n",
		r.DNSOnlyDevices, r.DNSNames, r.DNSFirst, r.DNSThird, r.DNSSupport,
		paper.EUI64.DNSDomains, paper.EUI64.DNSFirst, paper.EUI64.DNSThird, paper.EUI64.DNSSupport)
	return w.String()
}

// DAD renders the §5.2.1 audit.
func DAD(r analysis.DADReport) string {
	var w strings.Builder
	fmt.Fprintf(&w, "DAD audit (§5.2.1)\n")
	fmt.Fprintf(&w, "devices skipping DAD for >=1 address: %d (paper %d)\n", r.DevicesSkipping, paper.DAD.DevicesSkipping)
	fmt.Fprintf(&w, "addresses without DAD: GUA=%d ULA=%d LLA=%d (paper %d/%d/%d)\n",
		r.GUAsNoDAD, r.ULAsNoDAD, r.LLAsNoDAD, paper.DAD.GUAsNoDAD, paper.DAD.ULAsNoDAD, paper.DAD.LLAsNoDAD)
	fmt.Fprintf(&w, "devices never probing: %d %v (paper %d)\n", r.DevicesNeverDAD, r.NonCompliant, paper.DAD.DevicesNeverDAD)
	return w.String()
}

// PortScan renders the §5.4.2 findings.
func PortScan(r *experiment.ScanReport) string {
	var w strings.Builder
	fmt.Fprintf(&w, "Port scans (§5.4.2)\n")
	fmt.Fprintf(&w, "devices with IPv4-only open ports: %d (paper %d)\n",
		r.DevicesWithV4OnlyPorts, paper.PortScan.DevicesWithV4OnlyPorts)
	fmt.Fprintf(&w, "devices with IPv6-only open ports: %d (paper 1, the Samsung Fridge)\n", r.DevicesWithV6OnlyPorts)
	for _, d := range r.Devices {
		if len(d.V4OnlyTCP) == 0 && len(d.V6OnlyTCP) == 0 {
			continue
		}
		fmt.Fprintf(&w, "  %-22s v4-only=%v v6-only=%v\n", d.Device, d.V4OnlyTCP, d.V6OnlyTCP)
	}
	return w.String()
}

// Tracking renders the §5.4.3 findings.
func Tracking(r analysis.TrackingReport) string {
	var w strings.Builder
	fmt.Fprintf(&w, "Tracking domains (§5.4.3, functional devices)\n")
	fmt.Fprintf(&w, "domains only in IPv4: %d (paper %d); SLDs: %d (paper %d); third-party SLDs: %d (paper %d)\n",
		r.V4OnlyDomains, paper.Tracking.V4OnlyDomains,
		r.V4OnlySLDs, paper.Tracking.V4OnlySLDs,
		r.ThirdPartySLDs, paper.Tracking.ThirdPartySLDs)
	fmt.Fprintf(&w, "tracker SLDs: %s\n", strings.Join(r.TrackerSLDs, ", "))
	return w.String()
}

// FunctionalMatrix renders the per-experiment functionality outcomes — the
// §4.1 test applied in every configuration (the paper reports only the
// IPv6-only aggregate; the matrix shows the RDNSS-only and stateful
// variants too).
func FunctionalMatrix(exps []*analysis.ExpObs, profiles []string) string {
	var w strings.Builder
	fmt.Fprintf(&w, "Functionality matrix — §4.1 primary-function test per experiment\n")
	fmt.Fprintf(&w, "%-24s", "Device")
	for _, e := range exps {
		id := e.ID
		if len(id) > 10 {
			id = id[len(id)-10:]
		}
		fmt.Fprintf(&w, " %10s", id)
	}
	fmt.Fprintf(&w, "\n")
	counts := make([]int, len(exps))
	for _, name := range profiles {
		// Only print devices that fail somewhere (the interesting rows).
		interesting := false
		for _, e := range exps {
			if !e.Functional[name] {
				interesting = true
			}
		}
		for i, e := range exps {
			if e.Functional[name] {
				counts[i]++
			}
		}
		if !interesting {
			continue
		}
		fmt.Fprintf(&w, "%-24s", name)
		for _, e := range exps {
			mark := "fail"
			if e.Functional[name] {
				mark = "ok"
			}
			fmt.Fprintf(&w, " %10s", mark)
		}
		fmt.Fprintf(&w, "\n")
	}
	fmt.Fprintf(&w, "%-24s", "TOTAL functional")
	for _, c := range counts {
		fmt.Fprintf(&w, " %10d", c)
	}
	fmt.Fprintf(&w, "\n")
	return w.String()
}

// Groups renders a Table 8 / 12 / 13-style grouping.
func Groups(title string, rows []analysis.GroupRow) string {
	var w strings.Builder
	fmt.Fprintf(&w, "%s\n", title)
	features := []string{
		"IPv6 Addr", "Stateful DHCPv6", "GUA", "ULA", "LLA", "EUI-64 Addr",
		"DNS Over IPv6", "AAAA Request (v4 or v6)", "AAAA Response",
		"Stateless DHCPv6", "Internet Trans", "Local Trans",
	}
	fmt.Fprintf(&w, "%-22s %4s %4s", "Group", "Dev", "Func")
	for _, f := range features {
		fmt.Fprintf(&w, " %5s", abbrev(f))
	}
	fmt.Fprintf(&w, "\n")
	for _, r := range rows {
		fmt.Fprintf(&w, "%-22s %4d %4d", r.Group, r.Devices, r.FunctionalV6)
		for _, f := range features {
			fmt.Fprintf(&w, " %5d", r.Features[f])
		}
		fmt.Fprintf(&w, "\n")
	}
	return w.String()
}

// Table13 renders the grouped inventories.
func Table13(rows []analysis.GroupRow) string {
	var w strings.Builder
	fmt.Fprintf(&w, "Table 13 — Addresses and distinct AAAA names per group\n")
	fmt.Fprintf(&w, "%-22s %5s %6s %5s %5s %5s %6s\n", "Group", "Dev", "Addrs", "GUA", "ULA", "LLA", "AAAA#")
	for _, r := range rows {
		fmt.Fprintf(&w, "%-22s %5d %6d %5d %5d %5d %6d\n", r.Group, r.Devices, r.Addrs, r.GUAs, r.ULAs, r.LLAs, r.AAAANames)
	}
	return w.String()
}

// Table10 renders the per-device inventory.
func Table10(ds *analysis.Dataset) string {
	var w strings.Builder
	fmt.Fprintf(&w, "Table 10 — Device inventory with observed IPv6 features\n")
	fmt.Fprintf(&w, "%-24s %-10s %4s %4s %4s %4s %4s %4s\n", "Device", "Category", "Func", "NDP", "Addr", "GUA", "DNS6", "Data")
	base := ds.BaselineV6Only()
	for _, p := range ds.Profiles {
		d := ds.Device(analysis.V6Enabled, p.Name)
		row := [6]bool{
			base != nil && base.Functional[p.Name],
			d.NDP,
			len(d.Assigned) > 0,
			d.HasAddr(addr.KindGUA),
			d.DNSOverV6(),
			d.InternetV6,
		}
		fmt.Fprintf(&w, "%-24s %-10s", p.Name, p.Category)
		for _, b := range row {
			mark := " ."
			if b {
				mark = " x"
			}
			fmt.Fprintf(&w, "%4s", mark)
		}
		fmt.Fprintf(&w, "\n")
	}
	return w.String()
}

func abbrev(s string) string {
	words := strings.Fields(s)
	out := ""
	for _, wd := range words {
		out += wd[:1]
	}
	if len(out) < 2 && len(s) >= 5 {
		return s[:5]
	}
	return out
}

func sumInts(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

func maxInt(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func percentile(sorted []int, p int) int {
	if len(sorted) == 0 {
		return 0
	}
	idx := p * (len(sorted) - 1) / 100
	return sorted[idx]
}
