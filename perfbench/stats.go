package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median is the 50th percentile of xs.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile of xs, interpolating linearly
// between the closest ranks; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := math.Max(0, math.Min(1, p/100)) * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// ratio returns num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// parseSeed parses a workload seed: a non-negative decimal integer. Every
// engine treats seed 0 as its default seed 1, so 0 is normalised to 1 and
// both spellings share one recorded output.
func parseSeed(s string) (uint64, error) {
	n, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("invalid --seed %q: want a non-negative integer", s)
	}
	if n == 0 {
		n = 1
	}
	return n, nil
}

// digestOf is the hex sha256 of an artifact.
func digestOf(artifact string) string {
	sum := sha256.Sum256([]byte(artifact))
	return hex.EncodeToString(sum[:])
}

// sample is the cost of one timed unit.
type sample struct {
	wall, cpu      time.Duration
	mallocs, bytes uint64
}

// measure runs f once and records its wall time, the process's CPU time,
// and the heap allocations every goroutine made meanwhile.
func measure(f func() error) (sample, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	t0 := time.Now()
	err := f()
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&after)
	return sample{
		wall:    wall,
		cpu:     cpu,
		mallocs: after.Mallocs - before.Mallocs,
		bytes:   after.TotalAlloc - before.TotalAlloc,
	}, err
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set in MiB; Linux reports
// ru_maxrss in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
