package v6lab

import (
	"errors"
	"fmt"

	"v6lab/internal/report"
	"v6lab/internal/telemetry"
)

// ErrNotRun is returned (wrapped) by ReportErr for a study artifact, and
// by ExportCSV, before Connectivity has run.
var ErrNotRun = errors.New("v6lab: no part has run; call Run first")

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

// renderArtifact renders one artifact from the lab's results. The caller
// has already vetted the name against Artifacts.
func renderArtifact(l *Lab, a Artifact) (string, error) {
	// The fleet, resilience, and adversary artifacts derive from their
	// own runs, not from the single-home dataset, so they render without
	// Run.
	switch a {
	case FleetStudy:
		if l.FleetPop == nil {
			return "Fleet population study: not run (pass -fleet N or call Lab.RunFleet)\n", nil
		}
		return report.Fleet(l.FleetPop), nil
	case ResilienceStudy:
		if l.Resil == nil {
			return "Resilience impairment grid: not run (pass -resilience or call Lab.Run(v6lab.Resilience()))\n", nil
		}
		return report.Resilience(l.Resil), nil
	case AdversaryStudy:
		if l.Adv == nil {
			return "Adversary study: not run (pass -adversary N or call Lab.Run(v6lab.Adversary(n)))\n", nil
		}
		return report.Adversary(l.Adv), nil
	case TimelineStudy:
		if l.TL == nil {
			return "Timeline study: not run (pass -horizon 7d or call Lab.Run(v6lab.Timeline(v6lab.Weeks(1))))\n", nil
		}
		return report.Timeline(l.TL), nil
	}
	if l.Data == nil {
		return "", fmt.Errorf("%s: %w", a, ErrNotRun)
	}
	ds := l.Data
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
		return report.PortScan(l.Study.Scan), nil
	case Tracking:
		return report.Tracking(ds.Tracking()), nil
	case Firewall:
		if l.FirewallCmp == nil {
			return "Firewall policy comparison: not run (pass -firewall=compare or a policy name)\n", nil
		}
		return report.FirewallExposure(l.FirewallCmp), nil
	case FuncMatrix:
		var names []string
		for _, p := range ds.Profiles {
			names = append(names, p.Name)
		}
		return report.FunctionalMatrix(ds.Exps, names), nil
	}
	return "", fmt.Errorf("%w %q", ErrUnknownArtifact, a)
}
