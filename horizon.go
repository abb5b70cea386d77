package v6lab

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ErrInvalidHorizon is returned (wrapped) for zero or negative horizons:
// by ParseHorizon/NewHorizon at construction, and by the Timeline part
// when no valid horizon reaches it.
// The lab never panics over a bad horizon mid-run — the error surfaces at
// the API boundary.
var ErrInvalidHorizon = errors.New("v6lab: horizon must be a positive simulated duration")

// Horizon is a typed simulated duration for long-horizon timeline runs.
// The type exists so day- and week-scale simulated time reads as what it
// is (Days(3), Weeks(1)) instead of raw time.Duration arithmetic, and so
// validity is checked where a horizon enters the API rather than deep in
// an engine. The zero Horizon means "unset" — a Timeline then takes its
// TimelineConfig's Horizon.
type Horizon struct{ d time.Duration }

// Days returns an n-day simulated horizon.
func Days(n int) Horizon { return Horizon{time.Duration(n) * 24 * time.Hour} }

// Weeks returns an n-week simulated horizon.
func Weeks(n int) Horizon { return Horizon{time.Duration(n) * 7 * 24 * time.Hour} }

// NewHorizon wraps an arbitrary duration, rejecting zero and negative
// values with ErrInvalidHorizon.
func NewHorizon(d time.Duration) (Horizon, error) {
	h := Horizon{d}
	if err := h.validate(); err != nil {
		return Horizon{}, err
	}
	return h, nil
}

// ParseHorizon parses a horizon flag value: "3d" and "2w" for days and
// weeks, or any positive time.ParseDuration form ("36h", "90m").
func ParseHorizon(s string) (Horizon, error) {
	if n, ok := suffixed(s, "d"); ok {
		return NewHorizon(time.Duration(n) * 24 * time.Hour)
	}
	if n, ok := suffixed(s, "w"); ok {
		return NewHorizon(time.Duration(n) * 7 * 24 * time.Hour)
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return Horizon{}, fmt.Errorf("%w: %q is not a duration (want e.g. 7d, 2w, 36h)", ErrInvalidHorizon, s)
	}
	return NewHorizon(d)
}

// suffixed matches "<integer><unit>" forms like "7d".
func suffixed(s, unit string) (int, bool) {
	body, ok := strings.CutSuffix(s, unit)
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(body)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Duration returns the horizon as simulated time.
func (h Horizon) Duration() time.Duration { return h.d }

// IsZero reports whether the horizon is unset.
func (h Horizon) IsZero() bool { return h.d == 0 }

// String renders day-scale horizons as days ("7d") and anything shorter
// as a plain duration.
func (h Horizon) String() string {
	if h.d > 0 && h.d%(24*time.Hour) == 0 {
		return fmt.Sprintf("%dd", h.d/(24*time.Hour))
	}
	return h.d.String()
}

func (h Horizon) validate() error {
	if h.d <= 0 {
		return fmt.Errorf("%w (got %v)", ErrInvalidHorizon, h.d)
	}
	return nil
}
