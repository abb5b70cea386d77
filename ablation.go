package v6lab

import "v6lab/internal/world"

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

// WithAblation applies the given mitigations to the lab's world: every
// device profile and, for AAAAEverywhere, every workload plan and the
// simulated Internet. New applies them to a world it builds for the lab
// alone (never a shared Env's) before the study is made, so every
// single-home part — Connectivity, FirewallComparison, Resilience — runs
// ablated. Fleet, Adversary and Timeline sample their homes from the
// device registry and run unablated.
func WithAblation(a Options) Option {
	return func(o *options) { o.ablation = a }
}

// active reports whether any mitigation is set.
func (a Options) active() bool {
	return a.ForcePrivacyExtensions || a.ForceDAD || a.AAAAEverywhere
}

// apply writes the mitigations into a world no study reads yet. AAAA
// records are handed out in plan order, so ablated runs repeat byte for
// byte.
func (a Options) apply(w *world.World) {
	for _, p := range w.Profiles {
		if a.ForcePrivacyExtensions {
			p.EUI64 = false
			p.EUI64GUA = false
			p.EUI64ForDNS = false
			p.EUI64ForData = false
			p.EUI64Probe = false
			p.EUI64ForNTP = false
		}
		if a.ForceDAD {
			p.SkipDADGUA = false
			p.SkipDADULA = false
			p.SkipDADLLA = false
		}
	}
	if a.AAAAEverywhere {
		for _, pl := range w.Plans {
			for i := range pl.Specs {
				pl.Specs[i].HasAAAA = true
				w.Cloud.EnsureAAAA(pl.Specs[i].Name)
			}
		}
	}
}
