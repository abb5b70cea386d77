package analysis

import (
	"context"
	"sync"
	"testing"

	"v6lab/internal/experiment"
	"v6lab/internal/paper"
	"v6lab/internal/world"
)

var (
	dsOnce sync.Once
	dsVal  *Dataset
	dsScan *experiment.ScanReport
)

// dataset runs the full study once and shares it across tests.
func dataset(t *testing.T) *Dataset {
	t.Helper()
	dsOnce.Do(func() {
		st := experiment.NewStudyWith(experiment.StudyOptions{World: world.Build(nil), Observe: Streaming()})
		if err := st.RunAllContext(context.Background()); err != nil {
			t.Fatalf("study: %v", err)
		}
		dsVal = FromStudy(st)
		dsScan = st.Scan
	})
	if dsVal == nil {
		t.Fatal("study failed in earlier test")
	}
	return dsVal
}

func TestTable3MatchesPaper(t *testing.T) {
	f := dataset(t).Table3()
	cases := []struct {
		name      string
		got, want paper.Vec
	}{
		{"NoIPv6", f.NoIPv6, paper.Table3.NoIPv6},
		{"NDP", f.NDP, paper.Table3.NDP},
		{"NDPNoAddr", f.NDPNoAddr, paper.Table3.NDPNoAddr},
		{"Addr", f.Addr, paper.Table3.Addr},
		{"GUA", f.GUA, paper.Table3.GUA},
		{"AddrNoDNS", f.AddrNoDNS, paper.Table3.AddrNoDNS},
		{"DNSAAAAReq", f.DNSAAAAReq, paper.Table3.DNSAAAAReq},
		{"AAAAResp", f.AAAAResp, paper.Table3.AAAAResp},
		{"InternetData", f.InternetData, paper.Table3.InternetData},
		{"DataNotFunc", f.DataNotFunc, paper.Table3.DataNotFunc},
		{"Functional", f.Functional, paper.Table3.Functional},
	}
	for _, tc := range cases {
		if tc.got != tc.want {
			t.Errorf("Table3.%s = %v, want %v", tc.name, tc.got, tc.want)
		}
	}
}

func TestTable5MatchesPaper(t *testing.T) {
	f := dataset(t).Table5()
	cases := []struct {
		name      string
		got, want paper.Vec
	}{
		{"Addr", f.Addr, paper.Table5.Addr},
		{"StatefulDHCPv6", f.StatefulDHCPv6, paper.Table5.StatefulDHCPv6},
		{"GUA", f.GUA, paper.Table5.GUA},
		{"ULA", f.ULA, paper.Table5.ULA},
		{"LLA", f.LLA, paper.Table5.LLA},
		{"DNSOverV6", f.DNSOverV6, paper.Table5.DNSOverV6},
		{"AOnlyInV6", f.AOnlyInV6, paper.Table5.AOnlyInV6},
		{"AAAAReq", f.AAAAReq, paper.Table5.AAAAReq},
		{"V4OnlyAAAAReq", f.V4OnlyAAAAReq, paper.Table5.V4OnlyAAAAReq},
		{"AAAAResp", f.AAAAResp, paper.Table5.AAAAResp},
		{"StatelessDHCPv6", f.StatelessDHCPv6, paper.Table5.StatelessDHCPv6},
		{"V6Trans", f.V6Trans, paper.Table5.V6Trans},
		{"InternetTrans", f.InternetTrans, paper.Table5.InternetTrans},
		{"LocalTrans", f.LocalTrans, paper.Table5.LocalTrans},
	}
	for _, tc := range cases {
		if tc.got != tc.want {
			t.Errorf("Table5.%s = %v, want %v", tc.name, tc.got, tc.want)
		}
	}
}

func TestTable6AddressInventory(t *testing.T) {
	inv := dataset(t).Table6()
	if inv.GUAs != paper.Table6.GUAAddrs {
		t.Errorf("GUAs = %v, want %v", inv.GUAs, paper.Table6.GUAAddrs)
	}
	if inv.ULAs != paper.Table6.ULAAddrs {
		t.Errorf("ULAs = %v, want %v", inv.ULAs, paper.Table6.ULAAddrs)
	}
	if inv.LLAs != paper.Table6.LLAAddrs {
		t.Errorf("LLAs = %v, want %v", inv.LLAs, paper.Table6.LLAAddrs)
	}
	// Volume fractions: within half a point per category.
	for ci, want := range paper.Table6.V6VolumeFracPct {
		got := inv.V6FracPct[ci]
		if diff := got - want; diff > 1.0 || diff < -1.0 {
			t.Errorf("cat %d volume fraction = %.2f%%, want %.1f%%", ci, got, want)
		}
	}
	if d := inv.V6FracTotalPct - paper.Table6.V6VolumeFracTotalPct; d > 2 || d < -2 {
		t.Errorf("total v6 fraction = %.2f%%, want %.1f%%", inv.V6FracTotalPct, paper.Table6.V6VolumeFracTotalPct)
	}
}

func TestDADAuditMatchesPaper(t *testing.T) {
	r := dataset(t).DADAudit()
	if r.DevicesSkipping != paper.DAD.DevicesSkipping {
		t.Errorf("devices skipping = %d, want %d", r.DevicesSkipping, paper.DAD.DevicesSkipping)
	}
	if r.DevicesNeverDAD != paper.DAD.DevicesNeverDAD {
		t.Errorf("never-DAD devices = %d (%v), want %d", r.DevicesNeverDAD, r.NonCompliant, paper.DAD.DevicesNeverDAD)
	}
	if r.GUAsNoDAD != paper.DAD.GUAsNoDAD || r.ULAsNoDAD != paper.DAD.ULAsNoDAD || r.LLAsNoDAD != paper.DAD.LLAsNoDAD {
		t.Errorf("addrs without DAD = %d/%d/%d, want %d/%d/%d",
			r.GUAsNoDAD, r.ULAsNoDAD, r.LLAsNoDAD,
			paper.DAD.GUAsNoDAD, paper.DAD.ULAsNoDAD, paper.DAD.LLAsNoDAD)
	}
}

func TestEUI64ExposureMatchesPaper(t *testing.T) {
	r := dataset(t).EUI64Exposure()
	if r.Use != paper.EUI64.Use || r.DNS != paper.EUI64.DNS || r.Data != paper.EUI64.Data {
		t.Errorf("funnel use/dns/data = %d/%d/%d, want %d/%d/%d",
			r.Use, r.DNS, r.Data, paper.EUI64.Use, paper.EUI64.DNS, paper.EUI64.Data)
	}
	if r.DataDomains != paper.EUI64.DataDomains ||
		r.DataFirst != paper.EUI64.DataFirst || r.DataThird != paper.EUI64.DataThird || r.DataSupport != paper.EUI64.DataSupport {
		t.Errorf("data exposure = %d (%d/%d/%d), want %d (%d/%d/%d)",
			r.DataDomains, r.DataFirst, r.DataThird, r.DataSupport,
			paper.EUI64.DataDomains, paper.EUI64.DataFirst, paper.EUI64.DataThird, paper.EUI64.DataSupport)
	}
	if r.DNSNames != paper.EUI64.DNSDomains ||
		r.DNSFirst != paper.EUI64.DNSFirst || r.DNSThird != paper.EUI64.DNSThird || r.DNSSupport != paper.EUI64.DNSSupport {
		t.Errorf("dns exposure = %d (%d/%d/%d), want %d (%d/%d/%d)",
			r.DNSNames, r.DNSFirst, r.DNSThird, r.DNSSupport,
			paper.EUI64.DNSDomains, paper.EUI64.DNSFirst, paper.EUI64.DNSThird, paper.EUI64.DNSSupport)
	}
}

func TestTrackingShape(t *testing.T) {
	r := dataset(t).Tracking()
	if r.ThirdPartySLDs < 10 {
		t.Errorf("third-party SLDs = %d, want ≥10 (paper: 13)", r.ThirdPartySLDs)
	}
	if r.V4OnlyDomains < 50 {
		t.Errorf("v4-only domains = %d, want a substantial set (paper: 129)", r.V4OnlyDomains)
	}
}

func TestFigure3Shape(t *testing.T) {
	c := dataset(t).Figure3()
	if got := paper.Table6.IPv6Addrs.Total(); sum(c.AddrsPerDevice) != got {
		t.Errorf("total addresses = %d, want %d", sum(c.AddrsPerDevice), got)
	}
	// 10 devices hold roughly 80% of the addresses (Figure 3 top).
	if share := TopShare(c.AddrsPerDevice, 10); share < 0.70 {
		t.Errorf("top-10 address share = %.2f, want ≥0.70", share)
	}
	// 10 devices hold ~70% of distinct AAAA names (Figure 3 bottom).
	if share := TopShare(c.AAAANamesPerDevice, 10); share < 0.55 {
		t.Errorf("top-10 query share = %.2f, want ≥0.55", share)
	}
}

func TestFigure4Shape(t *testing.T) {
	shares := dataset(t).Figure4()
	if len(shares) < 20 {
		t.Fatalf("devices with v6 volume = %d", len(shares))
	}
	over80, under20 := 0, 0
	var nestCam float64
	for _, s := range shares {
		if s.FracPct > 80 {
			over80++
		}
		if s.FracPct < 20 {
			under20++
		}
		if s.Device == "Nest Camera" {
			nestCam = s.FracPct
		}
	}
	if over80 != 3 {
		t.Errorf("devices >80%% v6 = %d, want 3", over80)
	}
	if under20 < len(shares)/2 {
		t.Errorf("devices <20%% = %d of %d, want more than half", under20, len(shares))
	}
	if nestCam < 80 {
		t.Errorf("Nest Camera fraction = %.1f%%, want >80%%", nestCam)
	}
}

func TestTable9Shape(t *testing.T) {
	sw := dataset(t).Table9()
	if sw.TotalDest.Total() < 2000 {
		t.Errorf("total destinations = %d, want ≈2083", sw.TotalDest.Total())
	}
	if sw.V4PartialToV6 != paper.Table9.V4PartialToV6 {
		t.Errorf("v4 partial→v6 = %v, want %v", sw.V4PartialToV6, paper.Table9.V4PartialToV6)
	}
	if sw.V4FullToV6 != paper.Table9.V4FullToV6 {
		t.Errorf("v4 full→v6 = %v, want %v", sw.V4FullToV6, paper.Table9.V4FullToV6)
	}
	if sw.V6PartialToV4 != paper.Table9.V6PartialToV4 {
		t.Errorf("v6 partial→v4 = %v, want %v", sw.V6PartialToV4, paper.Table9.V6PartialToV4)
	}
	if sw.V6FullToV4 != paper.Table9.V6FullToV4 {
		t.Errorf("v6 full→v4 = %v, want %v", sw.V6FullToV4, paper.Table9.V6FullToV4)
	}
}

func TestTable7Shape(t *testing.T) {
	funcRows, nonFuncRows, _, _ := dataset(t).Table7(3)
	var fDom, fAAAA, nDom, nAAAA int
	for _, r := range funcRows {
		fDom += r.Domains
		fAAAA += r.AAAA
	}
	for _, r := range nonFuncRows {
		nDom += r.Domains
		nAAAA += r.AAAA
	}
	fPct := 100 * float64(fAAAA) / float64(fDom)
	nPct := 100 * float64(nAAAA) / float64(nDom)
	if fPct < 60 || fPct > 85 {
		t.Errorf("functional AAAA readiness = %.1f%%, want ≈73%%", fPct)
	}
	if nPct < 20 || nPct > 42 {
		t.Errorf("non-functional AAAA readiness = %.1f%%, want ≈31%%", nPct)
	}
	if fPct <= nPct {
		t.Error("functional devices should have higher AAAA readiness")
	}
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}
