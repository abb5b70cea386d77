package v6lab

import (
	"v6lab/internal/analysis"
)

// Options selects counterfactual mitigations for ablation studies — the
// remediations the paper recommends (§6): if every stack used RFC 8981
// privacy extensions, or probed every address per RFC 4862, how would the
// privacy findings change?
type Options struct {
	// ForcePrivacyExtensions makes every device use randomized interface
	// identifiers, eliminating EUI-64 addresses.
	ForcePrivacyExtensions bool
	// ForceDAD makes every device probe every address before use.
	ForceDAD bool
	// AAAAEverywhere publishes AAAA records for every destination domain,
	// modelling a fully v6-ready Internet (the paper's §5.1.3 root cause
	// removed).
	AAAAEverywhere bool
}

// NewWithOptions builds a lab with the given mitigations applied to every
// device profile (and, for AAAAEverywhere, to the simulated Internet).
// Functional options (WithDevices, WithFaultProfile, ...) compose with the
// ablations.
func NewWithOptions(opts Options, extra ...Option) *Lab {
	if opts.ForcePrivacyExtensions || opts.ForceDAD || opts.AAAAEverywhere {
		// An active ablation mutates profiles, plans, and the cloud registry
		// below — all world state. It must never touch a shared Env's world,
		// so the lab builds a private one.
		extra = append(extra, func(o *options) { o.env = nil })
	}
	l := New(extra...)
	st := l.Study
	for _, p := range st.Profiles {
		if opts.ForcePrivacyExtensions {
			p.EUI64 = false
			p.EUI64GUA = false
			p.EUI64ForDNS = false
			p.EUI64ForData = false
			p.EUI64Probe = false
			p.EUI64ForNTP = false
		}
		if opts.ForceDAD {
			p.SkipDADGUA = false
			p.SkipDADULA = false
			p.SkipDADLLA = false
		}
	}
	if opts.AAAAEverywhere {
		for name := range st.Cloud.Domains() {
			st.Cloud.EnsureAAAA(name)
		}
		for _, pl := range st.World.Plans {
			for i := range pl.Specs {
				pl.Specs[i].HasAAAA = true
			}
		}
	}
	return l
}

// EUI64Exposure is a convenience accessor for ablation comparisons.
func (l *Lab) EUI64Exposure() analysis.EUI64Report {
	l.ensure()
	return l.Data.EUI64Exposure()
}

// DADAudit is a convenience accessor for ablation comparisons.
func (l *Lab) DADAudit() analysis.DADReport {
	l.ensure()
	return l.Data.DADAudit()
}
