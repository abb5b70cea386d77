package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"

	"v6lab/internal/fleet"
	"v6lab/internal/packet"
)

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 2.5}, {90, 3.7}, {100, 4}, {-5, 1}, {150, 4},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{4, 1, 3, 2}) {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median([7]) = %v, want 7", got)
	}
}

func TestRatio(t *testing.T) {
	if got := ratio(6, 3); got != 2 {
		t.Errorf("ratio(6, 3) = %v, want 2", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio(1, 0) = %v, want 0", got)
	}
}

func TestParseSeed(t *testing.T) {
	for in, want := range map[string]uint64{
		"7": 7, " 42 ": 42, "0": 1, "18446744073709551615": math.MaxUint64,
	} {
		got, err := parseSeed(in)
		if err != nil || got != want {
			t.Errorf("parseSeed(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "-1", "x", "1.5", "18446744073709551616"} {
		if _, err := parseSeed(bad); err == nil {
			t.Errorf("parseSeed(%q) accepted a bad seed", bad)
		}
	}
}

func TestParseArgs(t *testing.T) {
	o, err := parseArgs([]string{"--workload", "fleet", "--seed", "3", "--seconds", "12", "--trace", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if o.workload != "fleet" || o.seed != 3 || o.seconds.Seconds() != 12 || !o.trace {
		t.Errorf("parseArgs = %+v", o)
	}
	for _, bad := range [][]string{
		{"--workload", "nope"},
		{"--workload", "study", "--trace", "2"},
		{"--workload", "study", "--seconds", "0"},
		{"--workload", "study", "--seed", "x"},
		{"--workload", "study", "extra"},
		{"--bogus"},
	} {
		if _, err := parseArgs(bad); err == nil {
			t.Errorf("parseArgs(%q) accepted a bad command line", bad)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics pins BENCHMARK.json to the workloads
// and metrics the benchmark prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricJSON `json:"end_to_end"`
		PerLayer  []metricJSON `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
	check := func(kind string, got []metricJSON, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, benchmark prints %d", len(got), kind, len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s (%s), benchmark %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)

	// The per-layer names are the ones a traced run prints.
	led := &ledger{layers: map[string]*meter{}, captureAdd: &meter{}}
	for _, name := range ledgerLayers {
		led.layers[name] = &meter{}
	}
	printed := perLayerMetrics(&traceReport{}, led)
	if len(printed) != len(spec.PerLayer) {
		t.Errorf("BENCHMARK.json lists %d per_layer metrics, a traced run prints %d", len(spec.PerLayer), len(printed))
	}
	for _, m := range spec.PerLayer {
		if got, ok := printed[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("per_layer metric %s (%s): traced run prints %+v", m.Name, m.Unit, got)
		}
	}
}

type metricJSON struct{ Name, Unit string }

// TestReplaySanity records two homes and checks the ledger's invariants:
// every recorded frame decodes, the recordings hold exactly the frames the
// live switch delivered, and the netsim replay delivers each exactly once.
func TestReplaySanity(t *testing.T) {
	recs, live, err := recordHomes(homeSpecs(fleet.Config{Seed: 1}, 2))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	dec := packet.NewDecoder()
	for _, r := range recs {
		total += len(r.recs)
		for i, rec := range r.recs {
			if p := dec.Parse(rec.Data); p.Err != nil {
				t.Errorf("%s frame %d: %v", r.cfg.ID, i, p.Err)
			}
		}
	}
	if total == 0 {
		t.Fatal("recorded no frames")
	}
	if float64(total) != live {
		t.Errorf("recordings hold %d frames, live switch delivered %.0f", total, live)
	}
	var m meter
	for _, r := range recs {
		if err := replayNetsim(&m, r); err != nil {
			t.Fatal(err)
		}
	}
	if m.frames != float64(total) || m.calls <= 0 {
		t.Errorf("netsim replay: %.0f frames, %.0f host calls; want %d frames", m.frames, m.calls, total)
	}
	led, err := replayLedger(recs)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range ledgerLayers {
		// Layers replay whole passes over the recordings.
		if l := led.layers[name]; l.ns <= 0 || l.frames == 0 || math.Mod(l.frames, float64(total)) != 0 {
			t.Errorf("%s: %.0f ns over %.0f frames, want whole passes of %d", name, l.ns, l.frames, total)
		}
	}
}

// TestSameHomesDetectsDrift: the traced fleet run's equivalence check rejects a
// home whose frame or functional count differs.
func TestSameHomesDetectsDrift(t *testing.T) {
	pop := &fleet.Population{Homes: []*fleet.HomeResult{{FramesCaptured: 10, Functional: 3}}}
	if err := sameHomes(pop, []homeCount{{frames: 10, functional: 3}}); err != nil {
		t.Errorf("equal homes rejected: %v", err)
	}
	for _, bad := range [][]homeCount{{{frames: 11, functional: 3}}, {{frames: 10, functional: 2}}, nil} {
		if err := sameHomes(pop, bad); err == nil {
			t.Errorf("sameHomes accepted %v", bad)
		}
	}
}
