package v6lab

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"sync"
	"testing"

	"v6lab/internal/telemetry"
	"v6lab/internal/timeline"
)

// TestResultsTyped: after a run, the lab's fields expose the structured
// data the renderers consume, and TelemetrySnapshot the snapshot when one
// was requested.
func TestResultsTyped(t *testing.T) {
	reg := telemetry.NewRegistry()
	lab := New(WithDevices("Wyze Cam", "Apple TV"), WithTelemetry(reg))
	if err := lab.Run(); err != nil {
		t.Fatal(err)
	}
	if lab.Study == nil || lab.Data == nil {
		t.Fatal("lab missing study or dataset after Run")
	}
	if lab.FleetPop != nil || lab.Resil != nil || lab.FirewallCmp != nil {
		t.Error("lab reports parts that never ran")
	}
	snap, ok := lab.TelemetrySnapshot()
	if !ok {
		t.Fatal("no telemetry snapshot despite WithTelemetry")
	}
	if len(snap.Points) == 0 {
		t.Fatal("telemetry snapshot has no points after an instrumented run")
	}
	var runs int64
	for _, p := range snap.Points {
		if p.Name == "experiment_runs_total" {
			runs = p.Value
		}
	}
	if runs != 6 {
		t.Errorf("experiment_runs_total = %d, want 6", runs)
	}
	// ReportErr renders the same fields: the firewall placeholder matches
	// the nil FirewallCmp field.
	out, err := lab.ReportErr(Firewall)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "not run") {
		t.Errorf("Firewall artifact = %q, want a not-run note", out)
	}
}

// TestTelemetrySnapshotDisabled: without WithTelemetry the snapshot
// accessor reports absence rather than an empty registry.
func TestTelemetrySnapshotDisabled(t *testing.T) {
	if _, ok := New().TelemetrySnapshot(); ok {
		t.Fatal("TelemetrySnapshot ok on a lab built without WithTelemetry")
	}
}

// instrumentedSnapshot runs the default study at the given worker count
// with a fresh registry and returns both exporter encodings plus the
// lab, for hash checks.
func instrumentedSnapshot(t *testing.T, workers int) ([]byte, []byte, *Lab) {
	t.Helper()
	reg := telemetry.NewRegistry()
	lab := New(WithWorkers(workers), WithTelemetry(reg))
	if err := lab.Run(); err != nil {
		t.Fatal(err)
	}
	snap, ok := lab.TelemetrySnapshot()
	if !ok {
		t.Fatal("instrumented lab lost its registry")
	}
	j, err := snap.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return j, snap.Prometheus(), lab
}

// TestTelemetryDeterminismStudy: the default study's snapshot is
// byte-identical at one and six workers, in both exporter encodings —
// and instrumenting the run does not move a byte of the report output
// (the recorded fullreport hash still matches).
func TestTelemetryDeterminismStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("two full studies in -short mode")
	}
	serialJSON, serialProm, lab := instrumentedSnapshot(t, 1)
	parJSON, parProm, _ := instrumentedSnapshot(t, 6)
	if !bytes.Equal(serialJSON, parJSON) {
		t.Errorf("JSON snapshots differ between 1 and 6 workers:\n--- serial ---\n%s\n--- parallel ---\n%s", serialJSON, parJSON)
	}
	if !bytes.Equal(serialProm, parProm) {
		t.Errorf("Prometheus snapshots differ between 1 and 6 workers")
	}
	sum := sha256.Sum256([]byte(lab.FullReport()))
	if got := hex.EncodeToString(sum[:]); got != studyHashes["fullreport"] {
		t.Errorf("instrumented fullreport hash = %s, want recorded %s", got, studyHashes["fullreport"])
	}
}

// TestTelemetryCapturePolicy: every connectivity run streams its frames
// through the analysis observer with or without a pcap sink, so
// frames_streamed_total equals the frames those runs delivered either way
// (the switch's own counter also includes the port scan's frames, which
// no observer taps); only a lab with a sink buffers frames, and one
// without retains no capture bytes; and the streaming counter is itself
// worker-count invariant.
func TestTelemetryCapturePolicy(t *testing.T) {
	run := func(workers int, opts ...Option) map[string]int64 {
		reg := telemetry.NewRegistry()
		lab := New(append([]Option{WithWorkers(workers), WithTelemetry(reg)}, opts...)...)
		if err := lab.Run(); err != nil {
			t.Fatal(err)
		}
		snap, _ := lab.TelemetrySnapshot()
		vals := map[string]int64{}
		for _, pt := range snap.Points {
			vals[pt.Name] = pt.Value
		}
		for _, res := range lab.Study.Results {
			vals["delivered"] += int64(res.FramesDelivered)
		}
		return vals
	}
	buffered := run(1, WithPcaps(newPcapSink().open))
	streamed := run(1)
	for name, vals := range map[string]map[string]int64{"buffered": buffered, "streaming": streamed} {
		if got, want := vals["analysis_frames_streamed_total"], vals["delivered"]; got != want || got == 0 {
			t.Errorf("%s study streamed %d frames, its runs delivered %d", name, got, want)
		}
	}
	if buffered["analysis_frames_buffered_total"] != buffered["delivered"] {
		t.Errorf("study with a sink buffered %d frames, its runs delivered %d",
			buffered["analysis_frames_buffered_total"], buffered["delivered"])
	}
	// The sink lab wrote and dropped every capture during Run.
	if got := buffered["pcapio_capture_bytes_retained"]; got != 0 {
		t.Errorf("study with a sink still reports %d capture bytes retained after Run", got)
	}
	if streamed["analysis_frames_buffered_total"] != 0 || streamed["pcapio_capture_bytes_retained"] != 0 {
		t.Errorf("study without a sink retained capture state: buffered=%d bytes=%d",
			streamed["analysis_frames_buffered_total"], streamed["pcapio_capture_bytes_retained"])
	}
	if par := run(6); par["analysis_frames_streamed_total"] != streamed["analysis_frames_streamed_total"] {
		t.Errorf("frames_streamed_total differs across workers: 1→%d, 6→%d",
			streamed["analysis_frames_streamed_total"], par["analysis_frames_streamed_total"])
	}
}

// TestTelemetryDeterminismFleet: a 50-home fleet folds into a
// byte-identical snapshot at one and six workers.
func TestTelemetryDeterminismFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("two 50-home fleets in -short mode")
	}
	run := func(workers int) []byte {
		reg := telemetry.NewRegistry()
		lab := New(WithTelemetry(reg))
		part := Fleet(50, Workers(workers), Seed(5))
		if err := lab.Run(part); err != nil {
			t.Fatal(err)
		}
		snap, _ := lab.TelemetrySnapshot()
		j, err := snap.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	serial, par := run(1), run(6)
	if !bytes.Equal(serial, par) {
		t.Errorf("fleet snapshots differ between 1 and 6 workers:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, par)
	}
	if !bytes.Contains(serial, []byte(`"fleet_homes_completed_total"`)) {
		t.Error("fleet snapshot missing fleet_homes_completed_total")
	}
}

// TestTelemetryTimelineSwitch: the timeline's homes switch their frames
// through the instrumented switch, so netsim_frames_switched_total counts
// every frame the report counts, and instrumenting leaves the report
// bytes unchanged.
func TestTelemetryTimelineSwitch(t *testing.T) {
	part := Timeline(Days(2), TimelineConfig(timeline.Config{Homes: 8, Seed: 4}), Workers(2))
	reg := telemetry.NewRegistry()
	lab := New(WithTelemetry(reg))
	if err := lab.Run(part); err != nil {
		t.Fatal(err)
	}
	snap, _ := lab.TelemetrySnapshot()
	var switched int64
	for _, p := range snap.Points {
		if p.Name == "netsim_frames_switched_total" {
			switched += p.Value
		}
	}
	if want := int64(lab.TL.Totals().Frames); switched != want || want == 0 {
		t.Errorf("netsim_frames_switched_total = %d, want the report's %d frames", switched, want)
	}
	plain := New()
	if err := plain.Run(part); err != nil {
		t.Fatal(err)
	}
	if a, b := lab.Report(TimelineStudy), plain.Report(TimelineStudy); a != b {
		t.Errorf("telemetry changed the timeline report:\n--- instrumented ---\n%s\n--- plain ---\n%s", a, b)
	}
}

// TestProgressStreamCoversUnits: a progress sink sees one event per
// experiment and per fleet home, each stamped with simulated time.
func TestProgressStreamCoversUnits(t *testing.T) {
	var mu sync.Mutex
	var events []telemetry.Event
	sink := telemetry.FuncSink(func(ev telemetry.Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	lab := New(WithDevices("Wyze Cam"), WithProgress(sink))
	if err := lab.Run(Connectivity(), Fleet(3)); err != nil {
		t.Fatal(err)
	}
	byScope := map[string]int{}
	for _, ev := range events {
		byScope[ev.Scope]++
		if ev.Elapsed <= 0 {
			t.Errorf("event %s/%s has non-positive simulated elapsed %v", ev.Scope, ev.ID, ev.Elapsed)
		}
	}
	if byScope["experiment"] != 6 {
		t.Errorf("experiment events = %d, want 6", byScope["experiment"])
	}
	if byScope["fleet"] != 3 {
		t.Errorf("fleet events = %d, want 3", byScope["fleet"])
	}
}
