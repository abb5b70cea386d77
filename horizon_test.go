package v6lab

import (
	"errors"
	"strings"
	"testing"
	"time"

	"v6lab/internal/timeline"
)

func TestHorizonConstructorsAndParse(t *testing.T) {
	if got := Days(7).Duration(); got != 7*24*time.Hour {
		t.Errorf("Days(7) = %v", got)
	}
	if got := Weeks(2).Duration(); got != 14*24*time.Hour {
		t.Errorf("Weeks(2) = %v", got)
	}
	for in, want := range map[string]Horizon{
		"7d":  Days(7),
		"2w":  Weeks(2),
		"36h": {d: 36 * time.Hour},
	} {
		h, err := ParseHorizon(in)
		if err != nil {
			t.Errorf("ParseHorizon(%q): %v", in, err)
		} else if h != want {
			t.Errorf("ParseHorizon(%q) = %v, want %v", in, h, want)
		}
	}
	if got := Days(7).String(); got != "7d" {
		t.Errorf("Days(7).String() = %q", got)
	}
	if got := Weeks(1).String(); got != "7d" {
		t.Errorf("Weeks(1).String() = %q, want the same form as Days(7)", got)
	}
	for _, bad := range []string{"", "junk", "0d", "-1d", "-3h", "0s"} {
		if _, err := ParseHorizon(bad); !errors.Is(err, ErrInvalidHorizon) {
			t.Errorf("ParseHorizon(%q) err = %v, want ErrInvalidHorizon", bad, err)
		}
	}
	if _, err := NewHorizon(-time.Hour); !errors.Is(err, ErrInvalidHorizon) {
		t.Errorf("NewHorizon(-1h) err = %v, want ErrInvalidHorizon", err)
	}
}

// TestWithHorizonRejectedAtNew: an invalid WithHorizon is caught when the
// lab is built and surfaces as a typed error from the first Run — never a
// mid-run panic.
func TestWithHorizonRejectedAtNew(t *testing.T) {
	lab := New(WithDevices("TiVo Stream"), WithHorizon(Days(0)))
	err := lab.Run()
	if !errors.Is(err, ErrInvalidHorizon) {
		t.Fatalf("Run err = %v, want ErrInvalidHorizon", err)
	}
	if err := lab.RunContext(t.Context()); !errors.Is(err, ErrInvalidHorizon) {
		t.Fatalf("RunContext err = %v, want ErrInvalidHorizon", err)
	}
}

func TestTimelinePartNeedsAHorizon(t *testing.T) {
	lab := New(WithDevices("TiVo Stream"))
	if err := lab.Run(Timeline(Horizon{})); !errors.Is(err, ErrInvalidHorizon) {
		t.Fatalf("Run(Timeline(zero)) err = %v, want ErrInvalidHorizon", err)
	}
}

// TestTimelinePartAndArtifact: Run(Timeline(h)) fills TL and Results.
// Timeline, the artifact renders, and a zero part horizon falls back to
// WithHorizon.
func TestTimelinePartAndArtifact(t *testing.T) {
	lab := New(WithHorizon(Days(1)))
	// Rotate every 8h so even a one-day horizon exercises renumbering.
	part := Timeline(Horizon{},
		TimelineConfig(timeline.Config{Homes: 4, Seed: 3, RotationEvery: 8 * time.Hour}),
		Workers(2))
	if err := lab.Run(part); err != nil {
		t.Fatal(err)
	}
	if lab.TL == nil {
		t.Fatal("Run(Timeline) left TL nil")
	}
	if got := lab.TL.Cfg.Horizon; got != 24*time.Hour {
		t.Fatalf("timeline horizon = %v, want WithHorizon's 24h", got)
	}
	out, err := lab.ReportErr(TimelineStudy)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Timeline — 4 homes", "Lease-renewal funnel", "prefix rotations"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline artifact missing %q:\n%s", want, out)
		}
	}
}
