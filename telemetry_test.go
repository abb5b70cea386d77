package v6lab

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"strings"
	"sync"
	"testing"

	"v6lab/internal/telemetry"
	"v6lab/internal/timeline"
)

// TestResultsNotRun: a fresh lab has no typed results yet.
func TestResultsNotRun(t *testing.T) {
	if _, err := New().Results(); !errors.Is(err, ErrNotRun) {
		t.Fatalf("err = %v, want ErrNotRun", err)
	}
}

// TestResultsTyped: after a run, Results exposes the structured data the
// renderers consume, and the telemetry snapshot when one was requested.
func TestResultsTyped(t *testing.T) {
	reg := telemetry.NewRegistry()
	lab := New(WithDevices("Wyze Cam", "Apple TV"), WithTelemetry(reg))
	if err := lab.Run(); err != nil {
		t.Fatal(err)
	}
	res, err := lab.Results()
	if err != nil {
		t.Fatal(err)
	}
	if res.Study == nil || res.Data == nil {
		t.Fatal("Results missing study or dataset after Run")
	}
	if res.Fleet != nil || res.Resilience != nil || res.Firewall != nil {
		t.Error("Results reports parts that never ran")
	}
	if res.Telemetry == nil {
		t.Fatal("Results missing telemetry snapshot despite WithTelemetry")
	}
	if len(res.Telemetry.Points) == 0 {
		t.Fatal("telemetry snapshot has no points after an instrumented run")
	}
	var runs int64
	for _, p := range res.Telemetry.Points {
		if p.Name == "experiment_runs_total" {
			runs = p.Value
		}
	}
	if runs != 6 {
		t.Errorf("experiment_runs_total = %d, want 6", runs)
	}
	// ReportErr renders the same view: the firewall placeholder matches
	// the nil Firewall field.
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

// TestTelemetryCapturePolicy: the analysis-path counters split cleanly by
// capture policy — a buffered study streams nothing and retains capture
// bytes, a streaming study buffers nothing and retains none — and the
// streaming counters are themselves worker-count invariant.
func TestTelemetryCapturePolicy(t *testing.T) {
	run := func(workers int, p CapturePolicy) map[string]int64 {
		reg := telemetry.NewRegistry()
		lab := New(WithWorkers(workers), WithTelemetry(reg), WithCapture(p))
		if err := lab.Run(); err != nil {
			t.Fatal(err)
		}
		snap, _ := lab.TelemetrySnapshot()
		vals := map[string]int64{}
		for _, pt := range snap.Points {
			vals[pt.Name] = pt.Value
		}
		return vals
	}
	buffered := run(1, CaptureFull)
	if buffered["analysis_frames_buffered_total"] == 0 {
		t.Error("buffered study recorded no buffered frames")
	}
	if buffered["analysis_frames_streamed_total"] != 0 {
		t.Errorf("buffered study streamed %d frames, want 0", buffered["analysis_frames_streamed_total"])
	}
	if buffered["pcapio_capture_bytes_retained"] == 0 {
		t.Error("buffered study retains no capture bytes")
	}
	streamed := run(1, CaptureNone)
	if streamed["analysis_frames_streamed_total"] != buffered["analysis_frames_buffered_total"] {
		t.Errorf("streamed %d frames, buffered run saw %d — same study must observe the same frames",
			streamed["analysis_frames_streamed_total"], buffered["analysis_frames_buffered_total"])
	}
	if streamed["analysis_frames_buffered_total"] != 0 || streamed["pcapio_capture_bytes_retained"] != 0 {
		t.Errorf("streaming study retained capture state: buffered=%d bytes=%d",
			streamed["analysis_frames_buffered_total"], streamed["pcapio_capture_bytes_retained"])
	}
	if par := run(6, CaptureNone); par["analysis_frames_streamed_total"] != streamed["analysis_frames_streamed_total"] {
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
