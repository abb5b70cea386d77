package server

import (
	"bytes"
	"context"
	"io"
	"sync"
	"time"

	"v6lab"
	"v6lab/internal/adversary"
	"v6lab/internal/faults"
	"v6lab/internal/report"
	"v6lab/internal/telemetry"
	"v6lab/internal/timeline"
)

// State is a job's position in its lifecycle.
type State string

// The job states. A job moves queued → running → done|failed|cancelled;
// a cache hit is born done.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Job is one accepted study request. The immutable identity fields are
// set at creation; the mutable state is guarded by mu and read through
// Status.
type Job struct {
	// ID is the server-assigned job identifier ("job-000001").
	ID string
	// Key is the (seed, options-hash) cache key of the canonical spec.
	Key Key
	// Spec is the canonical spec the job runs.
	Spec JobSpec
	// Cached reports whether the job was served from the result cache
	// without running anything.
	Cached bool

	events *broadcaster

	mu       sync.Mutex
	state    State
	err      string
	result   *Result
	created  time.Time
	started  time.Time
	finished time.Time
}

// JobStatus is the wire form of GET /v1/jobs/{id}.
type JobStatus struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	State  State  `json:"state"`
	Cached bool   `json:"cached"`
	Key    Key    `json:"key"`
	// Error carries the failure message for failed/cancelled jobs.
	Error string `json:"error,omitempty"`
	// Artifacts lists the downloadable artifact names once done.
	Artifacts []string `json:"artifacts,omitempty"`
	// Wall-clock timestamps (RFC 3339); zero fields are omitted. Wall
	// time never reaches artifacts — those are deterministic — so it is
	// safe to expose here.
	CreatedAt  string `json:"created_at,omitempty"`
	StartedAt  string `json:"started_at,omitempty"`
	FinishedAt string `json:"finished_at,omitempty"`
}

// Status snapshots the job for the API.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.ID,
		Kind:      j.Spec.Kind,
		State:     j.state,
		Cached:    j.Cached,
		Key:       j.Key,
		Error:     j.err,
		CreatedAt: rfc3339(j.created),
	}
	st.StartedAt = rfc3339(j.started)
	st.FinishedAt = rfc3339(j.finished)
	if j.result != nil {
		st.Artifacts = j.result.Names()
	}
	return st
}

// Result returns the completed result, or nil while the job is not done.
func (j *Job) Result() *Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

func rfc3339(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.Format(time.RFC3339Nano)
}

// runSpec executes a canonical spec from scratch and collects its
// artifacts. Every job gets its own lab and telemetry registry, so
// concurrent jobs share no mutable state; sink receives the live
// progress stream.
func runSpec(ctx context.Context, spec JobSpec, sink telemetry.Sink) (*Result, error) {
	reg := telemetry.NewRegistry()
	opts := []v6lab.Option{
		v6lab.WithSeed(spec.Seed),
		v6lab.WithTelemetry(reg),
	}
	if sink != nil {
		opts = append(opts, v6lab.WithProgress(sink))
	}
	if len(spec.Devices) > 0 {
		opts = append(opts, v6lab.WithDevices(spec.Devices...))
	}
	if spec.Fault != "" {
		p, err := faults.ByName(spec.Fault)
		if err != nil {
			return nil, err
		}
		opts = append(opts, v6lab.WithFaultProfile(p))
	}
	// The lab's frame budget and worker count reach every part: the study,
	// the resilience grid, and — through the parts' shared resolution —
	// each fleet, adversary and timeline home. The part configs below set
	// only what is theirs alone.
	if spec.MaxFramesPerRun > 0 {
		opts = append(opts, v6lab.WithMaxFramesPerRun(spec.MaxFramesPerRun))
	}
	if spec.Workers > 0 {
		opts = append(opts, v6lab.WithWorkers(spec.Workers))
	}
	// Study and firewall jobs serve one pcap artifact per experiment: the
	// lab writes each into its own in-memory buffer.
	pcaps := make(map[string]*bytes.Buffer)
	if spec.Kind == KindStudy || spec.Kind == KindFirewall {
		opts = append(opts, v6lab.WithPcaps(func(id string) (io.WriteCloser, error) {
			b := new(bytes.Buffer)
			pcaps[id] = b
			return nopCloser{b}, nil
		}))
	}
	lab := v6lab.New(opts...)

	var parts []v6lab.RunPart
	switch spec.Kind {
	case KindStudy:
		parts = []v6lab.RunPart{v6lab.Connectivity()}
	case KindFirewall:
		parts = []v6lab.RunPart{v6lab.Connectivity(), v6lab.FirewallComparison(spec.Policies...)}
	case KindFleet:
		parts = []v6lab.RunPart{v6lab.Fleet(spec.FleetHomes, v6lab.Seed(spec.FleetSeed))}
	case KindResilience:
		parts = []v6lab.RunPart{v6lab.Resilience()}
	case KindAdversary:
		parts = []v6lab.RunPart{v6lab.Adversary(spec.FleetHomes, v6lab.Seed(spec.FleetSeed),
			v6lab.AdversaryConfig(adversary.Config{CampaignSeed: spec.CampaignSeed}))}
	case KindTimeline:
		h, err := v6lab.ParseHorizon(spec.Horizon)
		if err != nil {
			return nil, err
		}
		parts = []v6lab.RunPart{v6lab.Timeline(h, v6lab.Seed(spec.FleetSeed),
			v6lab.TimelineConfig(timeline.Config{Homes: spec.FleetHomes}))}
	}
	if err := lab.RunContext(ctx, parts...); err != nil {
		return nil, err
	}
	return collectArtifacts(lab, spec, pcaps)
}

// nopCloser makes an in-memory buffer a pcap sink's writer.
type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }

// collectArtifacts renders a completed lab into the immutable byte
// artifacts a result serves: the full report, the pcaps the lab wrote
// (one per connectivity experiment), the plot-ready CSV series, and the deterministic telemetry
// snapshot in both exposition formats. Everything here is
// byte-deterministic in (seed, canonical options), which is what lets a
// cache hit serve these bytes as if it had run the study.
func collectArtifacts(lab *v6lab.Lab, spec JobSpec, pcaps map[string]*bytes.Buffer) (*Result, error) {
	arts := make(map[string][]byte)
	switch spec.Kind {
	case KindStudy, KindFirewall:
		arts["fullreport"] = []byte(lab.FullReport())
		for id, b := range pcaps {
			arts[id+".pcap"] = b.Bytes()
		}
		for name, content := range report.CSVFiles(lab.Data) {
			arts[name] = []byte(content)
		}
	case KindFleet:
		arts["fullreport"] = []byte(lab.Report(v6lab.FleetStudy))
	case KindResilience:
		arts["fullreport"] = []byte(lab.Report(v6lab.ResilienceStudy))
	case KindAdversary:
		arts["fullreport"] = []byte(lab.Report(v6lab.AdversaryStudy))
	case KindTimeline:
		arts["fullreport"] = []byte(lab.Report(v6lab.TimelineStudy))
	}
	if snap, ok := lab.TelemetrySnapshot(); ok {
		arts["telemetry.prom"] = snap.Prometheus()
		j, err := snap.JSON()
		if err != nil {
			return nil, err
		}
		arts["telemetry.json"] = j
	}
	return &Result{Spec: spec, Artifacts: arts}, nil
}
