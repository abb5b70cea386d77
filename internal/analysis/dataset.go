package analysis

import (
	"v6lab/internal/experiment"
	"v6lab/internal/netsim"
)

// Streaming returns the observer factory experiment studies plug into
// StudyOptions.Observe: one streaming Observer per run, feeding this
// package's extraction core at frame-delivery time.
func Streaming() experiment.ObserverFactory {
	return func(cfg experiment.Config, st *experiment.Study, net *netsim.Network) netsim.Tap {
		o := NewObserver(cfg.ID, cfg.Mode, st.World.MACToDevice)
		o.net = net
		return o
	}
}

// Finalize returns the finished observations of the observer a run
// streamed its frames into (see Observer.Finalize).
func Finalize(res *experiment.RunResult) *ExpObs {
	o, ok := res.Observed.(*Observer)
	if !ok {
		panic("analysis: experiment " + res.Config.ID + " ran without an observer; build the study with StudyOptions.Observe = analysis.Streaming()")
	}
	return o.Finalize(res.Functional)
}

// FromStudy finalizes the observer every experiment of a Study streamed
// its frames into and assembles the Dataset the table derivations
// consume, including each experiment group's per-device union (see
// Dataset.Device). Extraction already happened at delivery, inside the
// runs; finalizing only resolves the deferred attribution.
func FromStudy(st *experiment.Study) *Dataset {
	ds := &Dataset{
		Profiles:   st.Profiles,
		ActiveAAAA: map[string]bool{},
		Cloud:      st.Cloud,
		Exps:       make([]*ExpObs, len(st.Results)),
	}
	for i, res := range st.Results {
		ds.Exps[i] = Finalize(res)
	}
	for name, r := range st.ActiveDNS {
		ds.ActiveAAAA[name] = r.HasAAAA
	}
	ds.buildViews()
	return ds
}
