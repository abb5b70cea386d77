package v6lab

import (
	"errors"
	"fmt"

	"v6lab/internal/adversary"
	"v6lab/internal/analysis"
	"v6lab/internal/experiment"
	"v6lab/internal/fleet"
	"v6lab/internal/report"
	"v6lab/internal/telemetry"
	"v6lab/internal/timeline"
)

// ErrNotRun is returned by Results on a lab that has not run any part
// yet.
var ErrNotRun = errors.New("v6lab: no part has run; call Run first")

// Results is the typed view of everything a lab has produced. It exposes
// the structured study, fleet, resilience, and firewall data directly so
// callers consume values rather than parse rendered report text;
// Report/ReportErr are thin renderers over the same view. Fields for
// parts that have not run are nil.
type Results struct {
	// Study is the configured single-home study (always present).
	Study *experiment.Study
	// Data is the analysis dataset, set once Connectivity has run.
	Data *analysis.Dataset
	// Firewall holds the policy comparison from FirewallComparison.
	Firewall *experiment.FirewallReport
	// Fleet holds the population results from Fleet.
	Fleet *fleet.Population
	// Resilience holds the impairment grid from Resilience.
	Resilience *experiment.ResilienceReport
	// Adversary holds the attacker's-view results from Adversary.
	Adversary *adversary.Report
	// Timeline holds the long-horizon results from Timeline.
	Timeline *timeline.Report
	// Telemetry is the deterministic metric snapshot, present when the
	// lab was built WithTelemetry.
	Telemetry *telemetry.Snapshot
}

// resultsView assembles the typed view without the telemetry snapshot
// (renderers never need it, and taking one walks the registry).
func (l *Lab) resultsView() Results {
	return Results{
		Study:      l.Study,
		Data:       l.Data,
		Firewall:   l.FirewallCmp,
		Fleet:      l.FleetPop,
		Resilience: l.Resil,
		Adversary:  l.Adv,
		Timeline:   l.TL,
	}
}

// Results returns the typed view of everything the lab has produced, or
// ErrNotRun when no part has run yet.
func (l *Lab) Results() (Results, error) {
	r := l.resultsView()
	if r.Data == nil && r.Firewall == nil && r.Fleet == nil && r.Resilience == nil && r.Adversary == nil && r.Timeline == nil {
		return Results{}, ErrNotRun
	}
	if snap, ok := l.TelemetrySnapshot(); ok {
		r.Telemetry = &snap
	}
	return r, nil
}

// TelemetrySnapshot captures the lab's metric registry at the current
// simulated time. The second return is false when the lab was built
// without WithTelemetry. The snapshot is deterministic: every metric
// update is an atomic addition timestamped off the simulated clock, so
// the same options and parts produce byte-identical JSON and Prometheus
// encodings at any worker count.
func (l *Lab) TelemetrySnapshot() (telemetry.Snapshot, bool) {
	if l.opts.telemetry == nil {
		return telemetry.Snapshot{}, false
	}
	return l.opts.telemetry.Snapshot(l.Study.Clock.Now()), true
}

// renderArtifact renders one artifact from the typed view. The caller
// has already vetted the name against Artifacts.
func renderArtifact(res Results, a Artifact) (string, error) {
	// The fleet, resilience, and adversary artifacts derive from their
	// own runs, not from the single-home dataset, so they render without
	// Run.
	switch a {
	case FleetStudy:
		if res.Fleet == nil {
			return "Fleet population study: not run (pass -fleet N or call Lab.RunFleet)\n", nil
		}
		return report.Fleet(res.Fleet), nil
	case ResilienceStudy:
		if res.Resilience == nil {
			return "Resilience impairment grid: not run (pass -resilience or call Lab.Run(v6lab.Resilience()))\n", nil
		}
		return report.Resilience(res.Resilience), nil
	case AdversaryStudy:
		if res.Adversary == nil {
			return "Adversary study: not run (pass -adversary N or call Lab.Run(v6lab.Adversary(n)))\n", nil
		}
		return report.Adversary(res.Adversary), nil
	case TimelineStudy:
		if res.Timeline == nil {
			return "Timeline study: not run (pass -horizon 7d or call Lab.Run(v6lab.Timeline(v6lab.Weeks(1))))\n", nil
		}
		return report.Timeline(res.Timeline), nil
	}
	if res.Data == nil {
		return "", fmt.Errorf("%s: %w", a, ErrNotRun)
	}
	ds := res.Data
	switch a {
	case Table3:
		return report.Table3(ds.Table3()), nil
	case Figure2:
		return report.Figure2(ds.Table3()), nil
	case Table4:
		return report.Table4(ds.Table4()), nil
	case Table5:
		return report.Table5(ds.Table5()), nil
	case Table6:
		return report.Table6(ds.Table6()), nil
	case Table7:
		f, n, mf, mn := ds.Table7(3)
		return report.Table7(f, n, mf, mn), nil
	case Table8:
		out := report.Groups("Table 8 — feature support by manufacturer (>=3 devices)", ds.GroupBy("manufacturer", 3))
		return out + report.Groups("Table 8 (cont.) — by OS (>=2 devices)", ds.GroupBy("os", 2)), nil
	case Table9:
		return report.Table9(ds.Table9()), nil
	case Table10:
		return report.Table10(ds), nil
	case Table12:
		return report.Groups("Table 12 — feature support by purchase year", ds.GroupBy("year", 1)), nil
	case Table13:
		return report.Table13(ds.GroupBy("manufacturer", 3)), nil
	case Figure3:
		return report.Figure3(ds.Figure3()), nil
	case Figure4:
		return report.Figure4(ds.Figure4()), nil
	case Figure5:
		return report.Figure5(ds.EUI64Exposure()), nil
	case DADAudit:
		return report.DAD(ds.DADAudit()), nil
	case Ports:
		return report.PortScan(res.Study.Scan), nil
	case Tracking:
		return report.Tracking(ds.Tracking()), nil
	case Firewall:
		if res.Firewall == nil {
			return "Firewall policy comparison: not run (pass -firewall=compare or a policy name)\n", nil
		}
		return report.FirewallExposure(res.Firewall), nil
	case FuncMatrix:
		var names []string
		for _, p := range ds.Profiles {
			names = append(names, p.Name)
		}
		return report.FunctionalMatrix(ds.Exps, names), nil
	}
	return "", fmt.Errorf("%w %q", ErrUnknownArtifact, a)
}
