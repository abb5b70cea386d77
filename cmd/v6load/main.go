// Command v6load is the load-generator client for v6labd: it fires N
// concurrent tenants at the server, each submitting a stream of study
// jobs with a configurable duplicate-request ratio, then reports
// throughput, latency, and cache behavior. With -verify it also fetches
// the fullreport artifact of every job sharing a cache key and asserts
// the bytes are identical — the live check that determinism makes the
// cache sound.
//
// Usage:
//
//	v6load -addr localhost:8080 [-tenants 4] [-requests 8] [-dup 50]
//	       [-kind study] [-devices "Wyze Cam,Apple TV"] [-fault lossy-wifi]
//	       [-fleet-homes 0] [-campaign-seed 0] [-load-seed 1] [-verify]
//	       [-expect-cache-hits -1]
//
// The duplicate ratio is a percentage: -dup 50 makes roughly half the
// requests reuse one shared spec (eligible for the result cache), the
// rest get unique seeds (forced cache misses). Request streams are
// derived from -load-seed, so a run is reproducible.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"v6lab/internal/splitmix"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jobOutcome records one request's journey for the final report.
type jobOutcome struct {
	Tenant    int
	JobID     string
	Key       string
	State     string
	Cached    bool
	Coalesced bool
	Latency   time.Duration
	Err       error
}

// submitResponse mirrors the server's POST /v1/jobs wire format.
type submitResponse struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Cached    bool   `json:"cached"`
	Coalesced bool   `json:"coalesced"`
	Key       struct {
		Seed uint64 `json:"seed"`
		Hash string `json:"options_hash"`
	} `json:"key"`
}

// jobStatus mirrors GET /v1/jobs/{id}.
type jobStatus struct {
	State string `json:"state"`
	Error string `json:"error"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("v6load", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "", "server address (host:port or URL); required")
	tenants := fs.Int("tenants", 1, "concurrent tenants")
	requests := fs.Int("requests", 1, "requests per tenant")
	dup := fs.Int("dup", 0, "percentage of requests reusing the shared base spec (0-100)")
	kind := fs.String("kind", "study", "job kind: study|firewall-comparison|fleet|resilience|adversary")
	devices := fs.String("devices", "", "comma-separated device names for the spec (empty = full registry)")
	fault := fs.String("fault", "", "impairment profile for the spec")
	fleetHomes := fs.Int("fleet-homes", 0, "population size for fleet and adversary jobs")
	campaignSeed := fs.Uint64("campaign-seed", 0, "campaign seed for adversary jobs (0 = omit; the server defaults it to 1)")
	loadSeed := fs.Uint64("load-seed", 1, "derives the per-tenant request streams; identical seeds reproduce the run")
	pollEvery := fs.Duration("poll", 5*time.Millisecond, "status poll interval")
	timeout := fs.Duration("timeout", 2*time.Minute, "per-job completion deadline")
	verify := fs.Bool("verify", false, "fetch the fullreport of every job sharing a cache key and assert byte identity")
	expectHits := fs.Int("expect-cache-hits", -1, "fail unless at least this many submissions were served from cache (-1 disables)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "v6load: unknown argument %q\n", fs.Arg(0))
		fs.Usage()
		return 2
	}
	if *addr == "" {
		fmt.Fprintln(stderr, "v6load: -addr is required")
		return 2
	}
	if *tenants < 1 || *requests < 1 || *dup < 0 || *dup > 100 {
		fmt.Fprintln(stderr, "v6load: -tenants and -requests want >= 1, -dup wants 0-100")
		return 2
	}
	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimSuffix(base, "/")

	specFor := func(seed uint64) string {
		spec := map[string]any{"kind": *kind, "seed": seed}
		if *devices != "" {
			var names []string
			for _, n := range strings.Split(*devices, ",") {
				if n = strings.TrimSpace(n); n != "" {
					names = append(names, n)
				}
			}
			spec["devices"] = names
		}
		if *fault != "" {
			spec["fault"] = *fault
		}
		if *fleetHomes > 0 {
			spec["fleet_homes"] = *fleetHomes
		}
		if *campaignSeed > 0 {
			spec["campaign_seed"] = *campaignSeed
		}
		blob, err := json.Marshal(spec)
		if err != nil {
			panic(err)
		}
		return string(blob)
	}

	// The shared base spec uses the load seed itself; unique specs draw
	// from a disjoint seed range.
	baseSpec := specFor(*loadSeed)
	var uniqueSeed atomic.Uint64
	uniqueSeed.Store(*loadSeed + 1_000_000)

	outcomes := make([]jobOutcome, *tenants**requests)
	start := time.Now()
	var wg sync.WaitGroup
	for t := 0; t < *tenants; t++ {
		wg.Add(1)
		go func(tenant int) {
			defer wg.Done()
			rng := splitmix.New(*loadSeed*1_000_003 + uint64(tenant))
			for i := 0; i < *requests; i++ {
				spec := baseSpec
				if rng.Intn(100) >= *dup {
					spec = specFor(uniqueSeed.Add(1))
				}
				outcomes[tenant**requests+i] = oneJob(base, tenant, spec, *pollEvery, *timeout)
			}
		}(t)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Aggregate.
	var done, failed, hits, coalesced int
	var totalLatency, maxLatency time.Duration
	byKey := map[string][]jobOutcome{}
	for _, oc := range outcomes {
		if oc.Err != nil || oc.State != "done" {
			failed++
			fmt.Fprintf(stderr, "v6load: tenant %d job %s: state %q err %v\n", oc.Tenant, oc.JobID, oc.State, oc.Err)
			continue
		}
		done++
		if oc.Cached {
			hits++
		}
		if oc.Coalesced {
			coalesced++
		}
		totalLatency += oc.Latency
		if oc.Latency > maxLatency {
			maxLatency = oc.Latency
		}
		byKey[oc.Key] = append(byKey[oc.Key], oc)
	}

	fmt.Fprintf(stdout, "v6load: %d tenants x %d requests against %s in %v\n", *tenants, *requests, base, elapsed.Round(time.Millisecond))
	fmt.Fprintf(stdout, "  completed: %d  failed: %d  cache hits: %d  coalesced: %d\n", done, failed, hits, coalesced)
	if done > 0 {
		fmt.Fprintf(stdout, "  throughput: %.1f studies/sec  mean latency: %v  max: %v\n",
			float64(done)/elapsed.Seconds(), (totalLatency / time.Duration(done)).Round(time.Microsecond), maxLatency.Round(time.Microsecond))
	}

	code := 0
	if failed > 0 {
		code = 1
	}
	if *verify {
		mismatches, checked := verifyIdentity(base, byKey, stderr)
		fmt.Fprintf(stdout, "  verify: %d duplicate-key groups byte-compared, %d mismatches\n", checked, mismatches)
		if mismatches > 0 {
			code = 1
		}
	}
	if *expectHits >= 0 && hits < *expectHits {
		fmt.Fprintf(stderr, "v6load: expected at least %d cache hits, saw %d\n", *expectHits, hits)
		code = 1
	}
	return code
}

// verifyIdentity byte-compares the fullreport artifact of every group of
// distinct jobs sharing a cache key. Determinism promises identity; a
// mismatch means the cache served bytes a fresh run would not have
// produced.
func verifyIdentity(base string, byKey map[string][]jobOutcome, stderr io.Writer) (mismatches, checked int) {
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		group := byKey[key]
		ids := map[string]bool{}
		for _, oc := range group {
			ids[oc.JobID] = true
		}
		if len(ids) < 2 {
			continue
		}
		checked++
		var want []byte
		var wantID string
		ok := true
		for id := range ids {
			blob, err := fetchArtifact(base, id, "fullreport")
			if err != nil {
				fmt.Fprintf(stderr, "v6load: verify key %s: %v\n", key, err)
				ok = false
				break
			}
			if want == nil {
				want, wantID = blob, id
				continue
			}
			if !bytes.Equal(want, blob) {
				fmt.Fprintf(stderr, "v6load: verify key %s: fullreport of %s (%d bytes) differs from %s (%d bytes)\n",
					key, id, len(blob), wantID, len(want))
				ok = false
			}
		}
		if !ok {
			mismatches++
		}
	}
	return mismatches, checked
}

// oneJob submits a spec and follows it to a terminal state.
func oneJob(base string, tenant int, spec string, poll, timeout time.Duration) jobOutcome {
	oc := jobOutcome{Tenant: tenant}
	start := time.Now()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		oc.Err = err
		return oc
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		oc.Err = err
		return oc
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		oc.Err = fmt.Errorf("POST /v1/jobs: %d: %s", resp.StatusCode, strings.TrimSpace(string(blob)))
		return oc
	}
	var sub submitResponse
	if err := json.Unmarshal(blob, &sub); err != nil {
		oc.Err = err
		return oc
	}
	oc.JobID = sub.ID
	oc.Cached = sub.Cached
	oc.Coalesced = sub.Coalesced
	oc.Key = fmt.Sprintf("%d/%s", sub.Key.Seed, sub.Key.Hash)
	oc.State = sub.State

	deadline := time.Now().Add(timeout)
	for oc.State != "done" && oc.State != "failed" && oc.State != "cancelled" {
		if time.Now().After(deadline) {
			oc.Err = fmt.Errorf("job %s did not finish within %v", sub.ID, timeout)
			return oc
		}
		time.Sleep(poll)
		st, err := fetchStatus(base, sub.ID)
		if err != nil {
			oc.Err = err
			return oc
		}
		oc.State = st.State
		if st.Error != "" {
			oc.Err = fmt.Errorf("job %s: %s", sub.ID, st.Error)
		}
	}
	oc.Latency = time.Since(start)
	return oc
}

func fetchStatus(base, id string) (jobStatus, error) {
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		return jobStatus{}, err
	}
	defer resp.Body.Close()
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return jobStatus{}, err
	}
	return st, nil
}

func fetchArtifact(base, id, name string) ([]byte, error) {
	resp, err := http.Get(base + "/v1/jobs/" + id + "/artifacts/" + name)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET artifact %s of %s: %d", name, id, resp.StatusCode)
	}
	return blob, nil
}
