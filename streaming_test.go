package v6lab

// One analysis path: every run streams its frames through the analysis
// Observer at delivery, and the capture policy decides only whether the
// frames are also buffered for pcap artifacts. A lab that never buffers
// must therefore render exactly the FullReport a buffered lab does, on the
// serial engine and on the worker pool alike. Together with
// TestParallelStudyByteIdentity (which pins the buffered report to its
// recorded hash) this pins the unbuffered report to the same bytes. The
// replay test closes the honest-pipeline loop: the pcaps a lab writes
// re-derive exactly the observations its live tap streamed.

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"v6lab/internal/analysis"
	"v6lab/internal/pcapio"
)

func TestStreamingEqualsBuffered(t *testing.T) {
	shared := sharedLab(t)
	for _, res := range shared.Study.Results {
		if got, want := res.Capture.Len(), res.FramesDelivered; got != want {
			t.Errorf("buffered: %s captured %d frames, delivered %d", res.Config.ID, got, want)
		}
	}
	buffered := shared.FullReport()
	for _, workers := range []int{1, 8} {
		lab := New(WithCapture(CaptureNone), WithWorkers(workers))
		if err := lab.Run(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, res := range lab.Study.Results {
			if res.Capture != nil {
				t.Fatalf("workers=%d: %s materialized a capture under CaptureNone", workers, res.Config.ID)
			}
			if res.Observed == nil {
				t.Fatalf("workers=%d: %s has no streaming observer", workers, res.Config.ID)
			}
			if got, want := res.Frames(), res.FramesDelivered; got != want {
				t.Errorf("workers=%d: %s observed %d frames, delivered %d", workers, res.Config.ID, got, want)
			}
		}
		if got := lab.FullReport(); got != buffered {
			t.Errorf("workers=%d: streaming report differs from buffered report (%d vs %d bytes)", workers, len(got), len(buffered))
		}
		if err := lab.SavePcaps(t.TempDir()); err == nil {
			t.Errorf("workers=%d: SavePcaps succeeded without captures", workers)
		} else if !strings.Contains(err.Error(), "CaptureNone") {
			t.Errorf("workers=%d: SavePcaps error %q does not name the capture policy", workers, err)
		}
	}
}

// TestPcapReplayEqualsStreamed reads back every pcap SavePcaps wrote and
// feeds its records through a fresh Observer: the result must equal the
// observations the run's live tap streamed, for all six experiments.
func TestPcapReplayEqualsStreamed(t *testing.T) {
	lab := New(WithWorkers(2))
	if err := lab.Run(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := lab.SavePcaps(dir); err != nil {
		t.Fatal(err)
	}
	if len(lab.Study.Results) != 6 {
		t.Fatalf("lab ran %d experiments, want 6", len(lab.Study.Results))
	}
	for i, res := range lab.Study.Results {
		recs, err := pcapio.ReadFile(filepath.Join(dir, res.Config.ID+".pcap"))
		if err != nil {
			t.Fatal(err)
		}
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
