package fleet

import (
	"context"
	"fmt"
	"testing"
)

// BenchmarkFleet times a 16-home fleet at increasing worker counts. Homes
// are independent, so on a multi-core runner the wall-clock should fall
// roughly linearly until workers exceed cores; on a single-core host all
// variants converge on the serial time.
func BenchmarkFleet(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			benchFleet(b, Config{Homes: 16, Workers: workers, Seed: 1})
		})
	}
}

func benchFleet(b *testing.B, cfg Config) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pop, err := RunContext(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(pop.Homes) != cfg.Homes {
			b.Fatalf("got %d homes", len(pop.Homes))
		}
	}
}
