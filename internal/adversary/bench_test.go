package adversary

import (
	"context"
	"testing"

	"v6lab/internal/fleet"
)

// BenchmarkCampaign times the full adversary pipeline — fleet ground
// truth, hitlist discovery, campaign sweep, worm — on a 16-home
// population. Recorded into BENCH_study.json by cmd/benchjson; CI gates
// allocs/op against the baseline.
func BenchmarkCampaign(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := RunContext(context.Background(), Config{Fleet: fleet.Config{Homes: 16, Workers: 4, Seed: 1}})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Homes != 16 {
			b.Fatalf("got %d homes", rep.Homes)
		}
	}
}
