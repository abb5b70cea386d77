package report

import (
	"strings"
	"testing"

	"v6lab/internal/analysis"
	"v6lab/internal/experiment"
	"v6lab/internal/paper"
)

func TestVecRowAlignmentAndPaperDiff(t *testing.T) {
	f := analysis.Funnel{
		Devices: paper.DevicesPerCategory,
		NDP:     paper.Table3.NDP, // matches: no (paper) line
		NoIPv6:  paper.Vec{1, 2, 3, 4, 5, 6, 7},
	}
	out := Table3(f)
	if !strings.Contains(out, "2 IPv6 NDP Traffic") {
		t.Error("missing NDP row")
	}
	// NDP matches the paper, so no "(paper)" echo directly below it.
	lines := strings.Split(out, "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "2 IPv6 NDP Traffic") {
			if i+1 < len(lines) && strings.Contains(lines[i+1], "(paper)") {
				t.Error("matching row printed a paper echo")
			}
		}
		if strings.HasPrefix(l, "- No IPv6") {
			if i+1 >= len(lines) || !strings.Contains(lines[i+1], "(paper)") {
				t.Error("mismatching row missing its paper echo")
			}
		}
	}
}

func TestFigure2Percentages(t *testing.T) {
	f := analysis.Funnel{NDP: paper.Table3.NDP}
	out := Figure2(f)
	if !strings.Contains(out, "63.4%") {
		t.Errorf("figure 2 missing 63.4%%:\n%s", out)
	}
}

func TestFigure5Rendering(t *testing.T) {
	r := analysis.EUI64Report{
		Assign: 20, Use: 15, DNS: 8, Data: 5,
		DataDomains: 27, DataFirst: 24, DataThird: 1, DataSupport: 2,
		DataDevices: []string{"Nest Camera"},
	}
	out := Figure5(r)
	for _, want := range []string{"use=15", "dns=8", "data=5", "Nest Camera", "27 domains"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure 5 missing %q:\n%s", want, out)
		}
	}
}

func TestPortScanRendering(t *testing.T) {
	r := &experiment.ScanReport{
		Devices: []experiment.DeviceScan{
			{Device: "Samsung Fridge", V6OnlyTCP: []uint16{37993, 46525, 46757}},
			{Device: "Quiet Device"},
		},
		DevicesWithV4OnlyPorts: 6,
		DevicesWithV6OnlyPorts: 1,
	}
	out := PortScan(r)
	if !strings.Contains(out, "Samsung Fridge") || !strings.Contains(out, "37993") {
		t.Errorf("port scan report missing fridge finding:\n%s", out)
	}
	if strings.Contains(out, "Quiet Device") {
		t.Error("devices without diffs should be omitted")
	}
}

func TestDADRendering(t *testing.T) {
	out := DAD(analysis.DADReport{DevicesSkipping: 18, GUAsNoDAD: 20, ULAsNoDAD: 7, LLAsNoDAD: 8, DevicesNeverDAD: 4})
	for _, want := range []string{"18", "20", "7", "8", "4"} {
		if !strings.Contains(out, want) {
			t.Errorf("DAD report missing %q", want)
		}
	}
}

func TestPercentileAndHelpers(t *testing.T) {
	xs := []int{1, 2, 3, 4, 100}
	if percentile(xs, 50) != 3 {
		t.Errorf("median = %d", percentile(xs, 50))
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty percentile")
	}
	if maxInt(xs) != 100 || sumInts(xs) != 110 {
		t.Error("max/sum wrong")
	}
	if abbrev("AAAA Request (v4 or v6)") == "" {
		t.Error("abbrev empty")
	}
}

func TestGroupsRendering(t *testing.T) {
	rows := []analysis.GroupRow{{
		Group: "Google", Devices: 8, FunctionalV6: 5,
		Features: map[string]int{"IPv6 Addr": 8, "GUA": 7},
	}}
	out := Groups("Table 8 test", rows)
	if !strings.Contains(out, "Google") || !strings.Contains(out, "8") {
		t.Errorf("groups output:\n%s", out)
	}
	out13 := Table13(rows)
	if !strings.Contains(out13, "Google") {
		t.Error("table 13 missing group")
	}
}

func TestReadinessPct(t *testing.T) {
	r := analysis.Readiness{Domains: 728, AAAA: 533}
	if pct := r.Pct(); pct < 73.1 || pct > 73.3 {
		t.Errorf("pct = %.2f", pct)
	}
	if (analysis.Readiness{}).Pct() != 0 {
		t.Error("zero-domain pct")
	}
}
