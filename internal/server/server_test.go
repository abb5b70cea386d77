package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"v6lab"
)

// testSpec is a small, fast study: two devices keep a full run around
// tens of milliseconds.
func testSpec(seed uint64) string {
	return fmt.Sprintf(`{"kind":"study","seed":%d,"devices":["Wyze Cam","Apple TV"]}`, seed)
}

// testServer starts a Server on an httptest listener and tears both down
// with the test.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		ts.Close()
	})
	return s, ts
}

func postJob(t *testing.T, base, body string) SubmitResponse {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		blob, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /v1/jobs = %d: %s", resp.StatusCode, blob)
	}
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	return sub
}

func getStatus(t *testing.T, base, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls the job until it reaches a terminal state.
func waitState(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, base, id)
		switch st.State {
		case StateDone, StateFailed, StateCancelled:
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return JobStatus{}
}

func getArtifact(t *testing.T, base, id, name string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/artifacts/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET artifact %s = %d: %s", name, resp.StatusCode, blob)
	}
	return blob
}

// metricValue scrapes one un-labelled series from /metrics.
func metricValue(t *testing.T, base, name string) uint64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseUint(strings.TrimPrefix(line, name+" "), 10, 64)
			if err != nil {
				t.Fatalf("parsing metric line %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

// TestCacheHitServesByteIdenticalArtifactsWithZeroRuns is the acceptance
// path: two identical submissions, the second served from cache —
// byte-identical artifacts, no second experiment run (the jobs-completed
// counter stays at 1).
func TestCacheHitServesByteIdenticalArtifactsWithZeroRuns(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2})

	first := postJob(t, ts.URL, testSpec(1))
	if first.Cached {
		t.Fatal("first submission reported cached: true")
	}
	st := waitState(t, ts.URL, first.ID)
	if st.State != StateDone {
		t.Fatalf("first job ended %s: %s", st.State, st.Error)
	}
	wantArtifacts := []string{"fullreport", "dual-stack.pcap", "funnel.csv", "telemetry.prom", "telemetry.json"}
	for _, name := range wantArtifacts {
		found := false
		for _, have := range st.Artifacts {
			if have == name {
				found = true
			}
		}
		if !found {
			t.Errorf("done job missing artifact %q (have %v)", name, st.Artifacts)
		}
	}

	// The second identical submission (different JSON field order) must
	// be a cache hit, already done.
	second := postJob(t, ts.URL, `{"devices":["Apple TV","Wyze Cam"],"seed":1,"kind":"study"}`)
	if !second.Cached {
		t.Fatal("second identical submission not served from cache")
	}
	if second.State != StateDone {
		t.Fatalf("cached job born %s, want done", second.State)
	}
	if second.ID == first.ID {
		t.Error("cache hit reused the first job ID; wanted a fresh record")
	}

	for _, name := range st.Artifacts {
		a := getArtifact(t, ts.URL, first.ID, name)
		b := getArtifact(t, ts.URL, second.ID, name)
		if !bytes.Equal(a, b) {
			t.Errorf("artifact %q differs between the run and its cache hit (%d vs %d bytes)", name, len(a), len(b))
		}
		if len(a) == 0 {
			t.Errorf("artifact %q is empty", name)
		}
	}

	if got := metricValue(t, ts.URL, "v6lab_server_jobs_completed_total"); got != 1 {
		t.Errorf("jobs_completed_total = %d after a cache hit, want 1 (the hit must run nothing)", got)
	}
	if got := metricValue(t, ts.URL, "v6lab_server_cache_hits_total"); got != 1 {
		t.Errorf("cache_hits_total = %d, want 1", got)
	}
	if got := metricValue(t, ts.URL, "v6lab_server_jobs_accepted_total"); got != 2 {
		t.Errorf("jobs_accepted_total = %d, want 2", got)
	}
}

// TestWorkerCountSharesCacheEntry: submissions differing only in the
// engine worker count are the same experiment (byte-identical output), so
// the second is a cache hit.
func TestWorkerCountSharesCacheEntry(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	first := postJob(t, ts.URL, `{"kind":"study","devices":["Wyze Cam","Apple TV"],"workers":1}`)
	waitState(t, ts.URL, first.ID)
	second := postJob(t, ts.URL, `{"kind":"study","devices":["Wyze Cam","Apple TV"],"workers":4}`)
	if !second.Cached {
		t.Error("worker-count change missed the cache; workers must not split the key")
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	cases := []struct {
		body string
		want int
	}{
		{`{"kind":"espresso"}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
		{`{"kind":"study","devices":["Quantum Toaster"]}`, http.StatusBadRequest},
		{`{"kind":"study","surprise":1}`, http.StatusBadRequest}, // unknown field
		{`{"kind":"fleet"}`, http.StatusBadRequest},              // no homes
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("POST %q = %d, want %d", c.body, resp.StatusCode, c.want)
		}
	}
}

// TestSubmitValidatesCanonicalSpec: a spec that differs from a valid one
// only in case and spacing canonicalizes to the same cache key, so it is
// accepted under that key and runs.
func TestSubmitValidatesCanonicalSpec(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	sub := postJob(t, ts.URL, `{"kind":" Study ","devices":["Wyze Cam","Apple TV"],"fault":"Lossy-WiFi"}`)
	want := JobSpec{Kind: KindStudy, Devices: []string{"Wyze Cam", "Apple TV"}, Fault: "lossy-wifi"}.CacheKey()
	if sub.Key != want {
		t.Errorf("mixed-case spec key = %v, want the canonical spec's %v", sub.Key, want)
	}
	if st := waitState(t, ts.URL, sub.ID); st.State != StateDone {
		t.Errorf("mixed-case spec finished %s, want %s", st.State, StateDone)
	}
}

func TestUnknownJobAndArtifact(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	for _, path := range []string{"/v1/jobs/job-999999", "/v1/jobs/job-999999/events", "/v1/jobs/job-999999/artifacts/fullreport"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
	sub := postJob(t, ts.URL, testSpec(1))
	waitState(t, ts.URL, sub.ID)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/artifacts/no-such-artifact")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown artifact = %d, want 404", resp.StatusCode)
	}
}

// TestCoalescingAttachesToInflightJob: with the single worker pinned by a
// filler job, two submissions of the same new spec share one job record.
func TestCoalescingAttachesToInflightJob(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, QueueDepth: 8})
	// The filler is a full-registry study (around a second of work), so
	// the worker stays pinned while the next submissions land even on a
	// one-core machine.
	filler := postJob(t, ts.URL, `{"kind":"study","seed":100}`)
	target := postJob(t, ts.URL, testSpec(101))
	dup := postJob(t, ts.URL, testSpec(101))
	if !dup.Coalesced {
		t.Errorf("duplicate of a queued job not coalesced: %+v", dup)
	}
	if dup.ID != target.ID {
		t.Errorf("coalesced submission got job %s, want the in-flight %s", dup.ID, target.ID)
	}
	if dup.Cached {
		t.Error("coalesced job reported cached: true before any run completed")
	}
	waitState(t, ts.URL, filler.ID)
	if st := waitState(t, ts.URL, target.ID); st.State != StateDone {
		t.Fatalf("target ended %s: %s", st.State, st.Error)
	}
}

// TestQueueFullRejectsWith503: the queue bounds the backlog; overflow is
// an explicit 503, not an unbounded pileup.
func TestQueueFullRejectsWith503(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, QueueDepth: 1})
	// A full-registry study pins the worker long enough for the two
	// follow-up submissions to land while it runs.
	running := postJob(t, ts.URL, `{"kind":"study","seed":200}`)
	// Wait until the worker picked the filler up, so the queue is empty.
	waitRunning(t, s, running.ID)
	postJob(t, ts.URL, testSpec(201)) // fills the one queue slot
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(testSpec(202)))
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submission = %d (%s), want 503", resp.StatusCode, blob)
	}
	if !strings.Contains(string(blob), "queue full") {
		t.Errorf("503 body %q does not name the queue", blob)
	}
}

// waitRunning spins until the job leaves the queued state.
func waitRunning(t *testing.T, s *Server, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		job, ok := s.lookupJob(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st := job.Status().State; st != StateQueued {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never started", id)
}

// TestEventsStreamReplaysAndTerminates: the SSE stream carries one event
// per completed experiment plus a terminal job event, and a subscriber
// attaching after completion replays the identical history.
func TestEventsStreamReplaysAndTerminates(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	sub := postJob(t, ts.URL, testSpec(1))
	waitState(t, ts.URL, sub.ID)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q, want text/event-stream", ct)
	}
	body, err := io.ReadAll(resp.Body) // the stream ends once the job is done
	if err != nil {
		t.Fatal(err)
	}
	var scopes []string
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev eventJSON
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE line %q: %v", line, err)
		}
		scopes = append(scopes, ev.Scope)
	}
	if len(scopes) < 7 {
		t.Fatalf("got %d events, want at least 6 experiments + 1 job event:\n%s", len(scopes), body)
	}
	if scopes[len(scopes)-1] != "job" {
		t.Errorf("last event scope = %q, want the terminal job event", scopes[len(scopes)-1])
	}
	sawExperiment := false
	for _, sc := range scopes {
		if sc == "experiment" {
			sawExperiment = true
		}
	}
	if !sawExperiment {
		t.Error("no experiment-scope events in the stream")
	}
}

// TestShutdownDrainsInflightAndCancelsQueued: in-flight work completes,
// the backlog is cancelled, and later submissions are rejected.
func TestShutdownDrainsInflightAndCancelsQueued(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The in-flight job is a full-registry study so shutdown reliably
	// lands while it runs.
	inflight := postJob(t, ts.URL, `{"kind":"study","seed":300}`)
	waitRunning(t, s, inflight.ID)
	queued := postJob(t, ts.URL, testSpec(301))

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	if st := getStatus(t, ts.URL, inflight.ID); st.State != StateDone {
		t.Errorf("in-flight job ended %s, want done (drain must finish it)", st.State)
	}
	st := getStatus(t, ts.URL, queued.ID)
	if st.State != StateCancelled {
		t.Errorf("queued job ended %s, want cancelled", st.State)
	}
	if len(st.Artifacts) != 0 {
		t.Errorf("cancelled job has artifacts %v; cancellation must leak nothing", st.Artifacts)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(testSpec(302)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submission after shutdown = %d, want 503", resp.StatusCode)
	}
}

// TestShutdownDeadlineCancelsInflight: an expired drain deadline cuts the
// running job loose via context; it ends cancelled with no artifacts.
func TestShutdownDeadlineCancelsInflight(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The full-registry study takes long enough that shutdown's expired
	// deadline always lands mid-run.
	inflight := postJob(t, ts.URL, `{"kind":"study","seed":400}`)
	waitRunning(t, s, inflight.ID)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // deadline already expired: no grace
	if err := s.Shutdown(ctx); err != context.Canceled {
		t.Fatalf("Shutdown = %v, want context.Canceled", err)
	}
	st := getStatus(t, ts.URL, inflight.ID)
	if st.State != StateCancelled {
		t.Errorf("in-flight job ended %s, want cancelled", st.State)
	}
	if len(st.Artifacts) != 0 {
		t.Errorf("cancelled job has artifacts %v", st.Artifacts)
	}
	if got := metricValue(t, ts.URL, "v6lab_server_jobs_completed_total"); got != 0 {
		t.Errorf("jobs_completed_total = %d after cancellation, want 0", got)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || string(blob) != "ok\n" {
		t.Errorf("healthz = %d %q", resp.StatusCode, blob)
	}
}

// TestFleetAndResilienceKinds: the other job kinds produce their reports
// end to end, and their cache keys behave.
func TestFleetAndResilienceKinds(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2})
	fleetJob := postJob(t, ts.URL, `{"kind":"fleet","fleet_homes":3,"workers":2}`)
	resJob := postJob(t, ts.URL, `{"kind":"resilience","devices":["Wyze Cam","Apple TV"]}`)
	for _, sub := range []SubmitResponse{fleetJob, resJob} {
		st := waitState(t, ts.URL, sub.ID)
		if st.State != StateDone {
			t.Fatalf("job %s (%s) ended %s: %s", sub.ID, st.Kind, st.State, st.Error)
		}
		rep := getArtifact(t, ts.URL, sub.ID, "fullreport")
		if len(rep) == 0 {
			t.Errorf("%s fullreport is empty", st.Kind)
		}
	}
	// A worker-count-only change to the fleet spec is a cache hit.
	dup := postJob(t, ts.URL, `{"kind":"fleet","fleet_homes":3,"workers":8}`)
	if !dup.Cached {
		t.Error("fleet resubmission with different workers missed the cache")
	}
}

// TestStudyPcapArtifactsMatchPcapDir: a study job's six <id>.pcap
// artifacts are the bytes v6lab.PcapDir writes for the same devices.
func TestStudyPcapArtifactsMatchPcapDir(t *testing.T) {
	devices := []string{"Wyze Cam", "Apple TV"}
	res, err := runSpec(context.Background(), JobSpec{Kind: KindStudy, Seed: 1, Devices: devices}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := v6lab.New(v6lab.WithDevices(devices...), v6lab.WithPcaps(v6lab.PcapDir(dir))).Run(); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.pcap"))
	if err != nil || len(files) != 6 {
		t.Fatalf("PcapDir wrote %d pcaps (%v), want 6", len(files), err)
	}
	for _, path := range files {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(path)
		if got, ok := res.Artifacts[name]; !ok || !bytes.Equal(got, want) {
			t.Errorf("artifact %s (present %v, %d bytes) differs from PcapDir's %d bytes", name, ok, len(got), len(want))
		}
	}
}
