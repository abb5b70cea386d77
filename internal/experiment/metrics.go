package experiment

import (
	"sync"
	"time"

	"v6lab/internal/cloud"
	"v6lab/internal/netsim"
	"v6lab/internal/router"
	"v6lab/internal/telemetry"
)

// studyMetrics binds a study to a telemetry registry: the netsim
// hot-path instruments plus pre-resolved counters every deterministic
// fold point adds into. Registration is idempotent, so any number of
// studies (fleet homes, resilience profiles, parallel experiment
// environments) built over the same registry accumulate into the same
// counters — and because every fold is an atomic addition, the final
// snapshot is independent of the order concurrent studies finish in.
type studyMetrics struct {
	reg *telemetry.Registry
	net *netsim.Metrics

	// Router-side folds, taken per experiment run.
	fwdV4, fwdV6, nat44, ptb    *telemetry.Counter
	leases4, leases6, neighbors *telemetry.Counter
	serviceDrops                *telemetry.Counter

	// Firewall / conntrack folds, taken per WAN sweep.
	fwPassedOut, fwAllowedState, fwAllowedPolicy, fwDroppedIn     *telemetry.Counter
	ctFlows, ctHits, ctMisses, ctInserts, ctEvictions, ctExpiries *telemetry.Counter

	// Device folds.
	retransmits, backoffRounds *telemetry.Counter
	devTested, devFunctional   *telemetry.Counter
	failureStages              *telemetry.CounterVec

	// Experiment progress.
	expRuns      *telemetry.Counter
	expElapsedMS *telemetry.Counter
	expByConfig  *telemetry.CounterVec

	// Analysis-path accounting: frames streamed through the analysis
	// observer, frames also buffered into a capture, and the capture bytes
	// the buffered runs retained.
	framesStreamed *telemetry.Counter
	framesBuffered *telemetry.Counter
	captureBytes   *telemetry.Gauge

	// Cloud queries by record type, folded as deltas (see foldCloud).
	cloudQueries *telemetry.CounterVec
	mu           sync.Mutex
	lastQueries  map[string]int
}

// newStudyMetrics resolves every instrument on the registry once.
func newStudyMetrics(r *telemetry.Registry) *studyMetrics {
	return &studyMetrics{
		reg: r,
		net: netsim.NewMetrics(r),

		fwdV4:        r.Counter("router", "forwarded_v4_total", "IPv4 packets routed LAN to WAN."),
		fwdV6:        r.Counter("router", "forwarded_v6_total", "IPv6 packets routed LAN to WAN."),
		nat44:        r.Counter("router", "nat44_translations_total", "NAT44 port mappings created."),
		ptb:          r.Counter("router", "icmp6_ptb_sent_total", "ICMPv6 Packet-Too-Big errors emitted by the MTU clamp."),
		leases4:      r.Counter("router", "dhcp4_leases_total", "DHCPv4 leases handed out."),
		leases6:      r.Counter("router", "dhcp6_leases_total", "DHCPv6 IA_NA leases handed out."),
		neighbors:    r.Counter("router", "ndp_neighbors_total", "IPv6 neighbor table entries learned."),
		serviceDrops: r.Counter("router", "service_drops_total", "RA/DHCPv6/DNS replies suppressed by the fault schedule."),

		fwPassedOut:     r.Counter("firewall", "passed_out_total", "LAN-to-WAN packets recorded as originating flows."),
		fwAllowedState:  r.Counter("firewall", "allowed_by_state_total", "Inbound packets admitted as tracked return traffic."),
		fwAllowedPolicy: r.Counter("firewall", "allowed_by_policy_total", "Unsolicited inbound packets the policy admitted."),
		fwDroppedIn:     r.Counter("firewall", "dropped_in_total", "Inbound packets the firewall rejected."),
		ctFlows:         r.Counter("conntrack", "flows_total", "Flows resident in conntrack tables at end of runs."),
		ctHits:          r.Counter("conntrack", "hits_total", "Conntrack lookups that matched a tracked flow."),
		ctMisses:        r.Counter("conntrack", "misses_total", "Conntrack lookups that found no flow."),
		ctInserts:       r.Counter("conntrack", "inserts_total", "Flows inserted into conntrack tables."),
		ctEvictions:     r.Counter("conntrack", "evictions_total", "Flows evicted by the LRU cap."),
		ctExpiries:      r.Counter("conntrack", "expiries_total", "Flows expired by the idle timer wheel."),

		retransmits:   r.Counter("device", "retransmits_total", "Retry transmissions devices made to recover from impairment."),
		backoffRounds: r.Counter("device", "retry_rounds_total", "Backoff rounds in which at least one device retransmitted."),
		devTested:     r.Counter("device", "functional_tests_total", "Device functionality tests applied."),
		devFunctional: r.Counter("device", "functional_pass_total", "Device functionality tests passed."),
		failureStages: r.CounterVec("device", "failure_stages_total", "Device runs by earliest broken funnel stage (ok = functional).", "stage"),

		expRuns:      r.Counter("experiment", "runs_total", "Table 2 connectivity experiments completed."),
		expElapsedMS: r.Counter("experiment", "sim_elapsed_ms_total", "Simulated milliseconds consumed by experiment runs."),
		expByConfig:  r.CounterVec("experiment", "runs_by_config_total", "Experiment runs by Table 2 configuration.", "config"),

		framesStreamed: r.Counter("analysis", "frames_streamed_total", "Frames parsed at delivery by streaming analysis observers."),
		framesBuffered: r.Counter("analysis", "frames_buffered_total", "Frames buffered into pcap captures for pcap artifacts."),
		captureBytes:   r.Gauge("pcapio", "capture_bytes_retained", "Frame bytes currently retained in experiment captures."),

		cloudQueries: r.CounterVec("cloud", "queries_total", "DNS questions served by the simulated cloud, by record type.", "type"),
		lastQueries:  make(map[string]int),
	}
}

// foldRun folds one finished connectivity run's router and device
// counters. The router is private to the run, so its totals are this
// run's deltas; elapsed is simulated time consumed, measured on the run's
// own clock, so it is the same whichever environment ran it.
func (tm *studyMetrics) foldRun(cfg Config, rt *router.Router, res *RunResult, elapsed time.Duration) {
	tm.fwdV4.Add(uint64(rt.ForwardedV4))
	tm.fwdV6.Add(uint64(rt.ForwardedV6))
	tm.nat44.Add(uint64(rt.NATTranslations))
	tm.ptb.Add(uint64(rt.PTBSent))
	tm.leases4.Add(uint64(rt.Lease4Count()))
	tm.leases6.Add(uint64(rt.Lease6Count()))
	tm.neighbors.Add(uint64(len(rt.Neighbors)))
	if rt.Faults != nil {
		tm.serviceDrops.Add(uint64(rt.Faults.RAsDropped + rt.Faults.DHCPv6Dropped + rt.Faults.AAAADropped))
	}
	for _, stage := range res.Stages {
		tm.devTested.Inc()
		if stage == "ok" {
			tm.devFunctional.Inc()
		}
		tm.failureStages.With(stage).Inc()
	}
	tm.retransmits.Add(uint64(res.Retransmits))
	tm.expRuns.Inc()
	tm.expByConfig.With(cfg.ID).Inc()
	tm.expElapsedMS.Add(uint64(elapsed.Milliseconds()))
}

// foldFirewall folds one WAN sweep's firewall and conntrack counters.
func (tm *studyMetrics) foldFirewall(pe *PolicyExposure) {
	tm.fwPassedOut.Add(pe.FW.PassedOut)
	tm.fwAllowedState.Add(pe.FW.AllowedByState)
	tm.fwAllowedPolicy.Add(pe.FW.AllowedByPolicy)
	tm.fwDroppedIn.Add(pe.FW.DroppedIn)
	tm.ctFlows.Add(uint64(pe.Flows))
	tm.ctHits.Add(uint64(pe.CT.Hits))
	tm.ctMisses.Add(uint64(pe.CT.Misses))
	tm.ctInserts.Add(uint64(pe.CT.Inserts))
	tm.ctEvictions.Add(uint64(pe.CT.Evictions))
	tm.ctExpiries.Add(uint64(pe.CT.Expiries))
}

// foldCloud folds the study's cloud query counters as a delta against
// what this study last folded. The study's cloud totals at every fold
// point are worker-count independent (the grid engine merges clone
// counters in config order before any fold), so the deltas — and with
// them the shared registry — stay byte-identical across worker counts.
func (tm *studyMetrics) foldCloud(cl *cloud.Cloud) {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	for typ, n := range cl.Queries {
		key := typ.String()
		if d := n - tm.lastQueries[key]; d > 0 {
			tm.cloudQueries.With(key).Add(uint64(d))
			tm.lastQueries[key] = n
		}
	}
}
