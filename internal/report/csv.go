package report

import (
	"encoding/csv"
	"fmt"
	"strings"

	"v6lab/internal/analysis"
	"v6lab/internal/paper"
)

// CSVFiles renders every plot-ready CSV series of ds — the Figure 2
// funnel, the Figure 4 volume shares and the two Figure 3 CDFs — keyed by
// file name.
func CSVFiles(ds *analysis.Dataset) map[string]string {
	cdfs := ds.Figure3()
	return map[string]string{
		"funnel.csv":      CSVFunnel(ds.Table3()),
		"volume.csv":      CSVVolumeShares(ds.Figure4()),
		"cdf_addrs.csv":   CSVCDF(cdfs.AddrsPerDevice),
		"cdf_queries.csv": CSVCDF(cdfs.AAAANamesPerDevice),
	}
}

// CSVFunnel exports Table 3 as CSV (one row per funnel stage, one column
// per category plus a total), for plotting Figure 2 externally.
func CSVFunnel(f analysis.Funnel) string {
	var sb strings.Builder
	w := csv.NewWriter(&sb)
	head := append([]string{"stage"}, paper.CategoryOrder...)
	head = append(head, "total")
	w.Write(head)
	rows := []struct {
		name string
		v    paper.Vec
	}{
		{"devices", f.Devices}, {"no_ipv6", f.NoIPv6}, {"ndp", f.NDP},
		{"address", f.Addr}, {"gua", f.GUA}, {"dns_aaaa", f.DNSAAAAReq},
		{"aaaa_response", f.AAAAResp}, {"internet_data", f.InternetData},
		{"functional", f.Functional},
	}
	for _, r := range rows {
		rec := []string{r.name}
		for _, x := range r.v {
			rec = append(rec, fmt.Sprint(x))
		}
		rec = append(rec, fmt.Sprint(r.v.Total()))
		w.Write(rec)
	}
	w.Flush()
	return sb.String()
}

// CSVVolumeShares exports Figure 4's series.
func CSVVolumeShares(shares []analysis.VolumeShare) string {
	var sb strings.Builder
	w := csv.NewWriter(&sb)
	w.Write([]string{"device", "ipv6_volume_pct", "functional_ipv6_only"})
	for _, s := range shares {
		w.Write([]string{s.Device, fmt.Sprintf("%.2f", s.FracPct), fmt.Sprint(s.Functional)})
	}
	w.Flush()
	return sb.String()
}

// CSVCDF exports one of Figure 3's distributions as (value, cumulative
// fraction) pairs.
func CSVCDF(sorted []int) string {
	var sb strings.Builder
	w := csv.NewWriter(&sb)
	w.Write([]string{"value", "cdf"})
	for i, v := range sorted {
		w.Write([]string{fmt.Sprint(v), fmt.Sprintf("%.4f", float64(i+1)/float64(len(sorted)))})
	}
	w.Flush()
	return sb.String()
}
