package v6lab

// One analysis path: every run streams its frames through the analysis
// Observer at delivery, and a pcap sink decides only whether the frames
// are also buffered for pcap files. A lab without a sink must therefore
// render exactly the FullReport a lab with one does, at one worker and at
// several alike. Together with
// TestParallelStudyByteIdentity (which pins the report of a lab with a
// sink to its recorded hash) this pins the report without one to the
// same bytes. The replay test closes the honest-pipeline loop: the pcaps
// a lab writes re-derive exactly the observations its live tap streamed.

import (
	"reflect"
	"testing"

	"v6lab/internal/analysis"
)

func TestStreamingEqualsBuffered(t *testing.T) {
	buffered := sharedLab(t).FullReport()
	for _, workers := range []int{1, 8} {
		lab := New(WithWorkers(workers))
		if err := lab.Run(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, res := range lab.Study.Results {
			if res.Capture != nil {
				t.Fatalf("workers=%d: %s buffered frames without a pcap sink", workers, res.Config.ID)
			}
			if res.Observed == nil {
				t.Fatalf("workers=%d: %s has no streaming observer", workers, res.Config.ID)
			}
		}
		if got := lab.FullReport(); got != buffered {
			t.Errorf("workers=%d: report without a sink differs from the report with one (%d vs %d bytes)", workers, len(got), len(buffered))
		}
		if workers == 1 {
			continue
		}
		sinkLab := New(WithWorkers(workers), WithPcaps(newPcapSink().open))
		if err := sinkLab.Run(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := sinkLab.FullReport(); got != buffered {
			t.Errorf("workers=%d: report with a sink differs from the serial one (%d vs %d bytes)", workers, len(got), len(buffered))
		}
	}
}

// TestPcapReplayEqualsStreamed reads back every pcap a lab wrote and
// feeds its records through a fresh Observer: the result must equal the
// observations the run's live tap streamed, for all six experiments.
func TestPcapReplayEqualsStreamed(t *testing.T) {
	pcaps := newPcapSink()
	lab := New(WithWorkers(2), WithPcaps(pcaps.open))
	if err := lab.Run(); err != nil {
		t.Fatal(err)
	}
	if len(lab.Study.Results) != 6 {
		t.Fatalf("lab ran %d experiments, want 6", len(lab.Study.Results))
	}
	for i, res := range lab.Study.Results {
		recs := pcaps.records(t, res.Config.ID)
		if len(recs) != res.FramesDelivered {
			t.Errorf("%s: pcap holds %d records, run delivered %d", res.Config.ID, len(recs), res.FramesDelivered)
		}
		o := analysis.NewObserver(res.Config.ID, res.Config.Mode, lab.Study.World.MACToDevice)
		for _, rec := range recs {
			o.Add(rec.Time, rec.Data)
		}
		if got := o.Finalize(res.Functional); !reflect.DeepEqual(got, lab.Data.Exps[i]) {
			t.Errorf("%s: observations replayed from the pcap differ from the streamed ones", res.Config.ID)
		}
	}
}
