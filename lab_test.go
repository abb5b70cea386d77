package v6lab

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"v6lab/internal/analysis"
	"v6lab/internal/paper"
)

func TestEveryArtifactRenders(t *testing.T) {
	lab := sharedLab(t)
	for _, a := range Artifacts {
		out := lab.Report(a)
		if len(out) < 40 {
			t.Errorf("artifact %s: suspiciously short output %q", a, out)
		}
	}
	if full := lab.FullReport(); len(full) < 4000 {
		t.Errorf("full report only %d bytes", len(full))
	}
}

// TestHeadlineNumbers checks the abstract's percentages end to end.
func TestHeadlineNumbers(t *testing.T) {
	lab := sharedLab(t)
	f := lab.Data.Table3()
	pct := func(v paper.Vec) float64 { return math.Round(1000*float64(v.Total())/93) / 10 }
	cases := []struct {
		name string
		got  float64
		want float64
	}{
		{"IPv6 traffic", pct(f.NDP), paper.Headline.PctV6Traffic},
		{"assign address", pct(f.Addr), 54.8}, // 51/93; the abstract's 53.8 counts 50
		{"AAAA in IPv6", pct(f.DNSAAAAReq), paper.Headline.PctAAAAInV6},
		{"Internet IPv6 data", pct(f.InternetData), paper.Headline.PctInternetV6},
		{"functional", pct(f.Functional), paper.Headline.PctFunctional},
	}
	for _, tc := range cases {
		if math.Abs(tc.got-tc.want) > 1.2 {
			t.Errorf("%s = %.1f%%, want %.1f%%", tc.name, tc.got, tc.want)
		}
	}
	// 16.1% of devices use EUI-64 global addresses.
	r := lab.Data.EUI64Exposure()
	if got := math.Round(1000*float64(r.Use)/93) / 10; math.Abs(got-paper.Headline.PctEUI64) > 0.5 {
		t.Errorf("EUI-64 use = %.1f%%, want %.1f%%", got, paper.Headline.PctEUI64)
	}
}

func TestReportBeforeRunErrNotRun(t *testing.T) {
	lab := New()
	_, err := lab.ReportErr(Table3)
	if !errors.Is(err, ErrNotRun) {
		t.Fatalf("err = %v, want ErrNotRun", err)
	}
	if got := lab.Report(Table3); got != err.Error()+"\n" {
		t.Errorf("Report = %q, want the error's message", got)
	}
}

// TestFullReportAndExportCSVBeforeRun: neither panics before Run.
// FullReport renders ErrNotRun's message and ExportCSV returns it wrapped,
// writing nothing.
func TestFullReportAndExportCSVBeforeRun(t *testing.T) {
	lab := New()
	if got, want := lab.FullReport(), ErrNotRun.Error()+"\n"; got != want {
		t.Errorf("FullReport = %q, want %q", got, want)
	}
	dir := filepath.Join(t.TempDir(), "csv")
	if err := lab.ExportCSV(dir); !errors.Is(err, ErrNotRun) {
		t.Fatalf("ExportCSV err = %v, want ErrNotRun", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("ExportCSV created %s before Run (stat err %v)", dir, err)
	}
}

// TestFullReportLeavesZeroDeviceObs renders every artifact, report.Table10
// included, then checks that the zero DeviceObs the views return for an
// unobserved device is still zero.
func TestFullReportLeavesZeroDeviceObs(t *testing.T) {
	lab := sharedLab(t)
	lab.FullReport()
	if d := lab.Data.Device(analysis.AllRuns, "no such device"); !reflect.DeepEqual(*d, analysis.DeviceObs{}) {
		t.Errorf("a renderer wrote the shared zero DeviceObs: %+v", *d)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("second full run in -short mode")
	}
	a := sharedLab(t)
	pcapsB := newPcapSink()
	b := New(WithPcaps(pcapsB.open))
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	// Every artifact, rendered together: the full reports must match to
	// the byte.
	if ra, rb := a.FullReport(), b.FullReport(); ra != rb {
		i := 0
		for i < len(ra) && i < len(rb) && ra[i] == rb[i] {
			i++
		}
		lo := i - 100
		if lo < 0 {
			lo = 0
		}
		t.Errorf("full reports differ between runs at byte %d:\n...%s\nvs\n...%s",
			i, ra[lo:min(i+100, len(ra))], rb[lo:min(i+100, len(rb))])
	}
	// The raw captures too: one pcap per experiment, byte-identical.
	if len(pcapsB.files) != 6 {
		t.Fatalf("pcap files = %d, want 6", len(pcapsB.files))
	}
	for id, fb := range pcapsB.files {
		fa := benchPcaps.files[id]
		if fa == nil || !bytes.Equal(fa.Bytes(), fb.Bytes()) {
			t.Errorf("%s.pcap differs between runs", id)
		}
	}
}

func TestExportCSV(t *testing.T) {
	lab := sharedLab(t)
	dir := t.TempDir()
	if err := lab.ExportCSV(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"funnel.csv", "volume.csv", "cdf_addrs.csv", "cdf_queries.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if len(strings.Split(strings.TrimSpace(string(data)), "\n")) < 3 {
			t.Errorf("%s: too few rows", name)
		}
	}
}
