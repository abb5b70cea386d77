package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"v6lab/internal/telemetry"
)

// Config sizes a Server. The zero value of every field selects a default,
// so Config{} is a complete configuration.
type Config struct {
	// Workers bounds the shared job pool; 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds the backlog of accepted-but-not-started jobs;
	// a full queue rejects submissions with 503. 0 means 64.
	QueueDepth int
	// CacheEntries bounds the LRU result cache, in completed studies;
	// 0 means 64.
	CacheEntries int
	// JobHistory bounds how many terminal job records stay addressable
	// by ID; the oldest are forgotten beyond it. Results themselves live
	// (and are evicted) in the cache, so forgetting a record only breaks
	// its /v1/jobs/{id} lookups. 0 means 1024.
	JobHistory int
	// Log, when non-nil, receives one line per job transition.
	Log io.Writer
}

// Server is the long-lived study service. Create one with New, mount
// Handler on an http.Server, and stop it with Shutdown.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	cache *resultCache
	queue chan *Job

	// Server-level metrics, exposed on /metrics alongside nothing else:
	// per-job telemetry is deterministic and therefore an artifact, not
	// a live series.
	reg           *telemetry.Registry
	jobsAccepted  *telemetry.Counter
	jobsCompleted *telemetry.Counter
	jobsFailed    *telemetry.Counter
	jobsCancelled *telemetry.Counter
	cacheHits     *telemetry.Counter
	queueDepth    *telemetry.Gauge
	jobLatencyMS  *telemetry.Histogram

	baseCtx context.Context
	cancel  context.CancelFunc
	workers sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job
	inflight map[Key]*Job // queued or running job per key, for coalescing
	terminal []string     // terminal job IDs, oldest first, for pruning
	nextID   int
	draining bool
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 64
	}
	if cfg.JobHistory <= 0 {
		cfg.JobHistory = 1024
	}
	ctx, cancel := context.WithCancel(context.Background())
	reg := telemetry.NewRegistry()
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		cache:    newResultCache(cfg.CacheEntries),
		queue:    make(chan *Job, cfg.QueueDepth),
		reg:      reg,
		baseCtx:  ctx,
		cancel:   cancel,
		jobs:     make(map[string]*Job),
		inflight: make(map[Key]*Job),
	}
	s.jobsAccepted = reg.Counter("server", "jobs_accepted_total", "Job submissions accepted (including cache hits and coalesced duplicates).")
	s.jobsCompleted = reg.Counter("server", "jobs_completed_total", "Jobs that actually ran an experiment to completion. Cache hits do not count.")
	s.jobsFailed = reg.Counter("server", "jobs_failed_total", "Jobs that ended in an error.")
	s.jobsCancelled = reg.Counter("server", "jobs_cancelled_total", "Jobs cancelled by shutdown.")
	s.cacheHits = reg.Counter("server", "cache_hits_total", "Submissions served instantly from the result cache.")
	s.queueDepth = reg.Gauge("server", "queue_depth", "Accepted jobs waiting for a worker.")
	s.jobLatencyMS = reg.Histogram("server", "job_latency_ms", "Wall-clock latency of completed experiment runs, in milliseconds.",
		[]uint64{1, 5, 10, 50, 100, 500, 1000, 5000, 10000, 60000})

	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/artifacts/{name}", s.handleArtifact)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)

	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.workerLoop()
	}
	return s
}

// Handler returns the HTTP handler serving the API.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains the server: new submissions are rejected, queued jobs
// are cancelled, and in-flight jobs run to completion until ctx's
// deadline, after which they are cancelled via context — RunContext
// leaves no partial results, so a cancelled job stores no artifacts.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.mu.Unlock()

	// No submitter can reach the queue once draining is set (handleSubmit
	// checks under mu), so closing it is safe and lets workers exit after
	// the backlog; queued jobs are cancelled rather than run.
	close(s.queue)

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancel() // cut in-flight jobs loose; they end cancelled
		<-done
		return ctx.Err()
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		fmt.Fprintf(s.cfg.Log, format+"\n", args...)
	}
}

// SubmitResponse is the wire form of POST /v1/jobs.
type SubmitResponse struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// Cached is true when the result was served from the cache and the
	// job is already done without running anything.
	Cached bool `json:"cached"`
	// Coalesced is true when an identical job was already queued or
	// running and this submission attached to it.
	Coalesced bool `json:"coalesced,omitempty"`
	Key       Key  `json:"key"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "decoding job spec: %v", err)
		return
	}
	// The spec that is validated is the one that is hashed and run, so
	// spellings that share a cache key are accepted or rejected together.
	canonical := spec.Canonicalize()
	if err := canonical.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, "invalid job spec: %v", err)
		return
	}
	key := canonical.CacheKey()
	s.jobsAccepted.Inc()

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if res, ok := s.cache.Get(key); ok {
		job := s.newJobLocked(canonical, key)
		job.Cached = true
		job.mu.Lock()
		job.state = StateDone
		job.result = res
		job.finished = time.Now()
		job.mu.Unlock()
		s.rememberTerminalLocked(job)
		s.mu.Unlock()
		s.cacheHits.Inc()
		job.events.Emit(telemetry.Event{Scope: "job", ID: job.ID, Detail: "served from cache"})
		job.events.Close()
		s.logf("job %s %s key %s: cache hit", job.ID, job.Spec.Kind, key)
		writeJSON(w, http.StatusOK, SubmitResponse{ID: job.ID, State: StateDone, Cached: true, Key: key})
		return
	}
	if running, ok := s.inflight[key]; ok {
		st := running.Status()
		s.mu.Unlock()
		writeJSON(w, http.StatusAccepted, SubmitResponse{ID: running.ID, State: st.State, Coalesced: true, Key: key})
		return
	}
	job := s.newJobLocked(canonical, key)
	s.queueDepth.Add(1)
	select {
	case s.queue <- job:
	default:
		s.queueDepth.Add(-1)
		delete(s.jobs, job.ID)
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "job queue full (%d queued)", s.cfg.QueueDepth)
		return
	}
	s.inflight[key] = job
	s.mu.Unlock()
	s.logf("job %s %s key %s: queued", job.ID, job.Spec.Kind, key)
	writeJSON(w, http.StatusAccepted, SubmitResponse{ID: job.ID, State: StateQueued, Key: key})
}

// newJobLocked allocates a job record; s.mu must be held.
func (s *Server) newJobLocked(spec JobSpec, key Key) *Job {
	s.nextID++
	job := &Job{
		ID:      fmt.Sprintf("job-%06d", s.nextID),
		Key:     key,
		Spec:    spec,
		events:  newBroadcaster(),
		state:   StateQueued,
		created: time.Now(),
	}
	s.jobs[job.ID] = job
	return job
}

// rememberTerminalLocked records a terminal job for bounded retention,
// forgetting the oldest terminal records beyond the history cap. s.mu
// must be held.
func (s *Server) rememberTerminalLocked(job *Job) {
	s.terminal = append(s.terminal, job.ID)
	for len(s.terminal) > s.cfg.JobHistory {
		delete(s.jobs, s.terminal[0])
		s.terminal = s.terminal[1:]
	}
}

func (s *Server) lookupJob(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) workerLoop() {
	defer s.workers.Done()
	for job := range s.queue {
		s.queueDepth.Add(-1)
		s.runJob(job)
	}
}

// runJob executes one queued job on a worker. Results only reach the
// cache (and the job record) on full success, so cancellation mid-run
// leaks no partial artifacts.
func (s *Server) runJob(job *Job) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining || s.baseCtx.Err() != nil {
		s.finishJob(job, StateCancelled, "cancelled by shutdown", nil)
		s.jobsCancelled.Inc()
		return
	}

	job.mu.Lock()
	job.state = StateRunning
	job.started = time.Now()
	job.mu.Unlock()
	s.logf("job %s %s key %s: running", job.ID, job.Spec.Kind, job.Key)

	start := time.Now()
	res, err := runSpec(s.baseCtx, job.Spec, job.events)
	switch {
	case err == nil:
		s.cache.Put(job.Key, res)
		s.jobsCompleted.Inc()
		s.jobLatencyMS.Observe(uint64(time.Since(start).Milliseconds()))
		s.finishJob(job, StateDone, "", res)
		s.logf("job %s %s key %s: done in %v", job.ID, job.Spec.Kind, job.Key, time.Since(start).Round(time.Millisecond))
	case s.baseCtx.Err() != nil:
		s.jobsCancelled.Inc()
		s.finishJob(job, StateCancelled, "cancelled by shutdown: "+err.Error(), nil)
	default:
		s.jobsFailed.Inc()
		s.finishJob(job, StateFailed, err.Error(), nil)
		s.logf("job %s %s key %s: failed: %v", job.ID, job.Spec.Kind, job.Key, err)
	}
}

// finishJob moves a job to a terminal state, releases its in-flight slot,
// and completes its event stream.
func (s *Server) finishJob(job *Job, state State, errMsg string, res *Result) {
	job.mu.Lock()
	job.state = state
	job.err = errMsg
	job.result = res
	job.finished = time.Now()
	job.mu.Unlock()

	s.mu.Lock()
	if s.inflight[job.Key] == job {
		delete(s.inflight, job.Key)
	}
	s.rememberTerminalLocked(job)
	s.mu.Unlock()

	detail := string(state)
	if errMsg != "" {
		detail += ": " + errMsg
	}
	job.events.Emit(telemetry.Event{Scope: "job", ID: job.ID, Detail: detail})
	job.events.Close()
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookupJob(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

// eventJSON is the wire form of one SSE progress event.
type eventJSON struct {
	Scope     string `json:"scope"`
	ID        string `json:"id"`
	Detail    string `json:"detail,omitempty"`
	ElapsedMS int64  `json:"elapsed_ms"`
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookupJob(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	flusher, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	writeEvent := func(ev telemetry.Event) bool {
		blob, err := json.Marshal(eventJSON{
			Scope:     ev.Scope,
			ID:        ev.ID,
			Detail:    ev.Detail,
			ElapsedMS: ev.Elapsed.Milliseconds(),
		})
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", blob); err != nil {
			return false
		}
		if canFlush {
			flusher.Flush()
		}
		return true
	}

	replay, live, done := job.events.Subscribe()
	for _, ev := range replay {
		if !writeEvent(ev) {
			if !done {
				job.events.Unsubscribe(live)
			}
			return
		}
	}
	if done {
		return
	}
	defer job.events.Unsubscribe(live)
	for {
		select {
		case ev, ok := <-live:
			if !ok {
				return
			}
			if !writeEvent(ev) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookupJob(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	res := job.Result()
	if res == nil {
		httpError(w, http.StatusConflict, "job %s is %s; artifacts exist only once done", job.ID, job.Status().State)
		return
	}
	name := r.PathValue("name")
	blob, ok := res.Artifacts[name]
	if !ok {
		httpError(w, http.StatusNotFound, "job %s has no artifact %q (have %s)", job.ID, name, strings.Join(res.Names(), ", "))
		return
	}
	w.Header().Set("Content-Type", artifactContentType(name))
	w.Header().Set("Content-Length", fmt.Sprint(len(blob)))
	w.Write(blob)
}

func artifactContentType(name string) string {
	switch {
	case strings.HasSuffix(name, ".pcap"):
		return "application/vnd.tcpdump.pcap"
	case strings.HasSuffix(name, ".json"):
		return "application/json"
	case strings.HasSuffix(name, ".csv"):
		return "text/csv; charset=utf-8"
	default:
		return "text/plain; charset=utf-8"
	}
}

// handleMetrics serves the server-level registry in the Prometheus text
// format, snapshotted at wall-clock now (server metrics are operational,
// not deterministic — the deterministic per-job snapshots are artifacts).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot(time.Now())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(snap.Prometheus())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
