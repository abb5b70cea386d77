package analysis

import (
	"sync"

	"v6lab/internal/experiment"
)

// Streaming returns the observer factory experiment studies plug into
// StudyOptions.Observe: one streaming Observer per run, feeding this
// package's extraction core at frame-delivery time (CaptureNone runs).
func Streaming() experiment.ObserverFactory {
	return func(cfg experiment.Config, st *experiment.Study) experiment.Observer {
		return NewObserver(cfg.ID, cfg.Mode, st.MACToDevice)
	}
}

// observationsFor returns one experiment's finished observations: the
// already-streamed observer's (finalized in place), or a fresh batch
// extraction over the buffered capture. Both paths run the same core.
func observationsFor(st *experiment.Study, res *experiment.RunResult) *ExpObs {
	if res.Capture != nil {
		return Observe(res.Config.ID, res.Config.Mode, res.Capture, st.MACToDevice, res.Functional)
	}
	if o, ok := res.Observed.(*Observer); ok {
		return o.Finalize(res.Functional)
	}
	panic("analysis: run has neither a capture nor a streaming Observer")
}

// FromStudy runs the extraction over every experiment a Study produced and
// assembles the Dataset the table derivations consume, including each
// experiment group's per-device union (see Dataset.Device). Each frame is
// parsed exactly once — at delivery for streaming (CaptureNone) runs, or
// here over the buffered capture; when the study's Workers allow it, the
// per-capture extractions run concurrently (they are independent) and land
// in the dataset in experiment order, so the result never depends on
// scheduling.
func FromStudy(st *experiment.Study) *Dataset {
	ds := &Dataset{
		Profiles:   st.Profiles,
		ActiveAAAA: map[string]bool{},
		Cloud:      st.Cloud,
	}
	ds.Exps = make([]*ExpObs, len(st.Results))
	workers := st.Workers
	if workers > len(st.Results) {
		workers = len(st.Results)
	}
	if workers <= 1 {
		for i, res := range st.Results {
			ds.Exps[i] = observationsFor(st, res)
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					ds.Exps[i] = observationsFor(st, st.Results[i])
				}
			}()
		}
		for i := range st.Results {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	}
	for name, r := range st.ActiveDNS {
		ds.ActiveAAAA[name] = r.HasAAAA
	}
	ds.buildViews()
	return ds
}
