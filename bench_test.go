package v6lab

// One benchmark per table and figure of the paper's evaluation: each bench
// regenerates its artifact from the captured packets and prints the same
// rows/series the paper reports (once, on first run). BenchmarkFullStudy
// measures the end-to-end pipeline: six connectivity experiments, active
// DNS, port scans, and packet-level re-analysis.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"v6lab/internal/analysis"
	"v6lab/internal/experiment"
	"v6lab/internal/telemetry"
)

var (
	benchOnce sync.Once
	benchLab  *Lab
	// benchPcaps holds the pcaps the shared lab wrote.
	benchPcaps *pcapSink
	benchErr   error
	printed    sync.Map
)

// sharedLab runs, once, the serial study that the package's tests and
// benchmarks share, writing its pcaps into benchPcaps.
func sharedLab(tb testing.TB) *Lab {
	tb.Helper()
	benchOnce.Do(func() {
		benchPcaps = newPcapSink()
		benchLab = New(WithPcaps(benchPcaps.open))
		benchErr = benchLab.Run()
	})
	if benchErr != nil {
		tb.Fatal(benchErr)
	}
	return benchLab
}

// benchArtifact times the derivation+rendering of one artifact and prints
// it once so the bench run doubles as the paper-regeneration harness.
func benchArtifact(b *testing.B, a Artifact) {
	lab := sharedLab(b)
	if _, done := printed.LoadOrStore(a, true); !done {
		fmt.Printf("\n%s\n", lab.Report(a))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = lab.Report(a)
	}
}

// BenchmarkFullStudy measures the complete reproduction: building the
// testbed, running all six Table 2 experiments plus the active
// measurements, and re-analyzing every capture.
func BenchmarkFullStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := New()
		if err := lab.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchReport keeps BenchmarkAnalyzeAndReport's output alive.
var benchReport string

// BenchmarkAnalyzeAndReport measures the two stages after the simulation
// on an already-run lab: analysis.FromStudy (finalizing the streamed
// observations and building the experiment-group views) and rendering
// every artifact.
func BenchmarkAnalyzeAndReport(b *testing.B) {
	view := *sharedLab(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view.Data = analysis.FromStudy(view.Study)
		benchReport = view.FullReport()
	}
}

// BenchmarkStudyParallel measures the full study on the grid engine at
// several worker counts, each over a shared Env with a warm environment
// pool — the steady state a study server or fleet reaches after its first
// run. Every count, workers=1 included, runs on pooled environments; the
// work per iteration is identical — and byte-identical — at every count. warmEnvPool fills the pool
// before the timer, so the measured rows show what pooling saves:
// allocs/op must not grow with the worker count.
func BenchmarkStudyParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 6} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			env := NewEnv()
			warmEnvPool(b, env, workers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lab := New(WithEnv(env), WithWorkers(workers))
				if err := lab.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable3_IPv6OnlyFunnel(b *testing.B)   { benchArtifact(b, Table3) }
func BenchmarkFigure2_Rings(b *testing.B)           { benchArtifact(b, Figure2) }
func BenchmarkTable4_DualStackDelta(b *testing.B)   { benchArtifact(b, Table4) }
func BenchmarkTable5_FeatureSupport(b *testing.B)   { benchArtifact(b, Table5) }
func BenchmarkTable6_Counts(b *testing.B)           { benchArtifact(b, Table6) }
func BenchmarkTable7_AAAAReadiness(b *testing.B)    { benchArtifact(b, Table7) }
func BenchmarkTable8_ByManufacturer(b *testing.B)   { benchArtifact(b, Table8) }
func BenchmarkTable9_Switching(b *testing.B)        { benchArtifact(b, Table9) }
func BenchmarkTable10_DeviceInventory(b *testing.B) { benchArtifact(b, Table10) }
func BenchmarkTable12_ByYear(b *testing.B)          { benchArtifact(b, Table12) }
func BenchmarkTable13_CountsByGroup(b *testing.B)   { benchArtifact(b, Table13) }
func BenchmarkFigure3_CDFs(b *testing.B)            { benchArtifact(b, Figure3) }
func BenchmarkFigure4_VolumeFractions(b *testing.B) { benchArtifact(b, Figure4) }
func BenchmarkFigure5_EUI64Exposure(b *testing.B)   { benchArtifact(b, Figure5) }
func BenchmarkDADAudit(b *testing.B)                { benchArtifact(b, DADAudit) }
func BenchmarkPortScan(b *testing.B)                { benchArtifact(b, Ports) }
func BenchmarkTrackingDomains(b *testing.B)         { benchArtifact(b, Tracking) }

// BenchmarkResilience measures the impairment grid end to end on a small
// streaming-heavy population: four fault profiles, six connectivity
// experiments each, with the retry/PMTUD machinery active. The grid is
// deterministic, so the work per iteration is fixed.
func BenchmarkResilience(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := New(WithDevices("TiVo Stream", "Apple TV", "Google Home Mini", "Nest Hub", "Wyze Cam"))
		if err := lab.Run(Resilience()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObserveStreaming measures the analysis extraction: the largest
// experiment's frames, read back from its pcap, fed one by one through a
// fresh streaming Observer, the per-frame tap cost every run pays at
// delivery, then Finalize.
func BenchmarkObserveStreaming(b *testing.B) {
	lab := sharedLab(b)
	biggest := lab.Study.Results[0]
	for _, r := range lab.Study.Results {
		if r.FramesDelivered > biggest.FramesDelivered {
			biggest = r
		}
	}
	recs := benchPcaps.records(b, biggest.Config.ID)
	size := 0
	for _, rec := range recs {
		size += len(rec.Data)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := analysis.NewObserver(biggest.Config.ID, biggest.Config.Mode, lab.Study.World.MACToDevice)
		for _, rec := range recs {
			o.Add(rec.Time, rec.Data)
		}
		o.Finalize(biggest.Functional)
	}
}

// warmEnvPool runs one study over env per Table 2 config, and in each
// holds every worker after its first experiment until all have finished
// one. So no pooled environment sits a study out, and each has served a
// grid's worth of experiments before the timed runs: one that never ran
// would grow its maps and switch arena inside the timer.
func warmEnvPool(b *testing.B, env *Env, workers int) {
	envs := min(workers, len(experiment.Configs))
	for range experiment.Configs {
		var firsts sync.WaitGroup
		firsts.Add(envs)
		var done atomic.Int64
		hold := telemetry.FuncSink(func(ev telemetry.Event) {
			// A held worker emits nothing more, so the first envs
			// experiment events come from distinct workers.
			if ev.Scope == "experiment" && done.Add(1) <= int64(envs) {
				firsts.Done()
				firsts.Wait()
			}
		})
		if err := New(WithEnv(env), WithWorkers(workers), WithProgress(hold)).Run(); err != nil {
			b.Fatal(err)
		}
	}
}
