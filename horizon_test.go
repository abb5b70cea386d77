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

func TestTimelinePartNeedsAHorizon(t *testing.T) {
	lab := New(WithDevices("TiVo Stream"))
	if err := lab.Run(Timeline(Horizon{})); !errors.Is(err, ErrInvalidHorizon) {
		t.Fatalf("Run(Timeline(zero)) err = %v, want ErrInvalidHorizon", err)
	}
	cfg, err := lab.timelineConfig(Horizon{}, applyParts([]PartOption{TimelineConfig(timeline.Config{Horizon: time.Hour})}))
	if err != nil || cfg.Horizon != time.Hour {
		t.Fatalf("zero part horizon: resolved %v, %v; want the TimelineConfig's 1h", cfg.Horizon, err)
	}
}

// TestTimelinePartAndArtifact: Run(Timeline(h)) fills TL, and the
// artifact renders. Three days cross the 60h prefix rotation.
func TestTimelinePartAndArtifact(t *testing.T) {
	lab := New()
	part := Timeline(Days(3), TimelineConfig(timeline.Config{Homes: 4, Seed: 3}), Workers(2))
	if err := lab.Run(part); err != nil {
		t.Fatal(err)
	}
	if lab.TL == nil {
		t.Fatal("Run(Timeline) left TL nil")
	}
	if got := lab.TL.Cfg.Horizon; got != 72*time.Hour {
		t.Fatalf("timeline horizon = %v, want Days(3)", got)
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
