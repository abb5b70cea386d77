package timeline

import (
	"time"

	"v6lab/internal/device"
	"v6lab/internal/splitmix"
)

// Diurnal activity model, shaped after the in-the-wild smart-home traffic
// studies in PAPERS.md ("Characterizing Smart Home IoT Traffic in the
// Wild", "An Analysis of Home IoT Network Traffic and Behaviour"): cameras
// and hubs chatter around the clock with a daytime lift, speakers and TVs
// peak in the evening, health wearables sync morning and evening, and
// appliances burst sparsely during waking hours.

// categoryShape is one category's long-horizon behavior.
type categoryShape struct {
	// burstsPerDay is how many workload bursts the device fires per
	// simulated day.
	burstsPerDay int
	// hours weights each local hour (0–23) for burst placement.
	hours [24]int
	// sleeper marks duty-cycled devices; awake/asleep bound the cycle
	// durations the per-device rng draws from.
	sleeper              bool
	awakeMin, awakeMax   time.Duration
	asleepMin, asleepMax time.Duration
}

// flat is the always-on baseline curve with a mild daytime lift.
var flat = [24]int{2, 2, 2, 2, 2, 2, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 5, 5, 5, 4, 3, 2, 2}

// evening peaks 18:00–23:00 (speakers, TVs).
var evening = [24]int{1, 1, 0, 0, 0, 0, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3, 4, 6, 8, 9, 9, 8, 5, 2}

// morningEvening is the wearable-sync double hump.
var morningEvening = [24]int{0, 0, 0, 0, 0, 1, 4, 6, 5, 2, 1, 1, 1, 1, 1, 1, 2, 4, 6, 6, 4, 2, 1, 0}

// daytime covers waking-hours appliance use.
var daytime = [24]int{0, 0, 0, 0, 0, 0, 2, 4, 5, 5, 4, 4, 5, 4, 4, 4, 4, 5, 5, 4, 3, 2, 1, 0}

// shapeFor returns the long-horizon shape of a device category.
func shapeFor(c device.Category) categoryShape {
	switch c {
	case device.Camera:
		return categoryShape{burstsPerDay: 16, hours: flat}
	case device.Gateway:
		return categoryShape{burstsPerDay: 12, hours: flat}
	case device.Speaker:
		return categoryShape{burstsPerDay: 14, hours: evening}
	case device.TV:
		return categoryShape{
			burstsPerDay: 8, hours: evening, sleeper: true,
			awakeMin: 3 * time.Hour, awakeMax: 7 * time.Hour,
			asleepMin: 6 * time.Hour, asleepMax: 14 * time.Hour,
		}
	case device.Health:
		return categoryShape{
			burstsPerDay: 6, hours: morningEvening, sleeper: true,
			awakeMin: 30 * time.Minute, awakeMax: 90 * time.Minute,
			asleepMin: 3 * time.Hour, asleepMax: 8 * time.Hour,
		}
	case device.HomeAuto:
		return categoryShape{
			burstsPerDay: 10, hours: morningEvening, sleeper: true,
			awakeMin: 1 * time.Hour, awakeMax: 3 * time.Hour,
			asleepMin: 1 * time.Hour, asleepMax: 4 * time.Hour,
		}
	case device.Appliance:
		return categoryShape{burstsPerDay: 4, hours: daytime}
	}
	return categoryShape{burstsPerDay: 6, hours: flat}
}

// pickHour draws an hour with probability proportional to the curve.
func pickHour(r *splitmix.Rand, hours *[24]int) int {
	total := 0
	for _, w := range hours {
		total += w
	}
	if total == 0 {
		return r.Intn(24)
	}
	x := r.Intn(total)
	for h, w := range hours {
		x -= w
		if x < 0 {
			return h
		}
	}
	return 23
}

// durBetween draws a duration uniformly from [lo, hi] at second
// granularity.
func durBetween(r *splitmix.Rand, lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	span := int((hi - lo) / time.Second)
	return lo + time.Duration(r.Intn(span+1))*time.Second
}
