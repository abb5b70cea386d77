package v6lab

// Byte-identity of the parallel study engine: a lab run on any worker
// count must produce exactly the FullReport and pcaps the serial engine
// produces — which are in turn pinned to recorded hashes, so a regression
// in either engine (or in the frame path underneath both) fails here.

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"v6lab/internal/faults"
	"v6lab/internal/report"
	"v6lab/internal/timeline"
)

// studyHashes are the sha256 sums of the serial single-home study's
// outputs, recorded before the parallel engine and the zero-copy frame
// path landed. Any engine change that alters a byte shows up as a diff
// against these.
var studyHashes = map[string]string{
	"fullreport":          "96e255d3365ad1b4619211d1763277de6983cc9a56a8314294a5ff959235f365",
	"ipv4-only":           "d0857fa276bfa52be08665c09e763a429a94c90ba7d7634d13e348d0eb3ba2fc",
	"ipv6-only":           "764dcfa206c3a7397f052678a352428fe45cbf5c749081a4a2688f7baae8d944",
	"ipv6-only-rdnss":     "eb3d076d33e569e409697fdf07b08be61cf5751be8069473fe72d27cca8b262f",
	"ipv6-only-stateful":  "080218a283d5551c56dd4ecaad7804f2a21017e2f802b5fe760ca0fabb694a34",
	"dual-stack":          "b5cdb6ca8bf9737a9cf89d5cb23cd63aa18fee7eedd37d02b940baa83d21f4da",
	"dual-stack-stateful": "645bc9c9824eaa1aae98da865e34fe47c459bd51371b27562a83649a22d3e887",
}

// labHashes computes the sha256 of the full report and of each pcap.
func labHashes(t *testing.T, lab *Lab) map[string]string {
	t.Helper()
	out := map[string]string{}
	sum := sha256.Sum256([]byte(lab.FullReport()))
	out["fullreport"] = hex.EncodeToString(sum[:])
	dir := t.TempDir()
	if err := lab.SavePcaps(dir); err != nil {
		t.Fatal(err)
	}
	for _, res := range lab.Study.Results {
		b, err := os.ReadFile(filepath.Join(dir, res.Config.ID+".pcap"))
		if err != nil {
			t.Fatal(err)
		}
		s := sha256.Sum256(b)
		out[res.Config.ID] = hex.EncodeToString(s[:])
	}
	return out
}

// TestParallelStudyByteIdentity runs the study on six workers and checks
// every output hash against the recorded serial baselines (the serial
// engine itself is pinned to the same baselines by the shared lab).
func TestParallelStudyByteIdentity(t *testing.T) {
	par := New(WithWorkers(6))
	if err := par.Run(); err != nil {
		t.Fatal(err)
	}
	got := labHashes(t, par)
	serial := labHashes(t, sharedLab(t))
	for key, want := range studyHashes {
		if serial[key] != want {
			t.Errorf("serial %s = %s, recorded baseline %s", key, serial[key], want)
		}
		if got[key] != want {
			t.Errorf("parallel %s = %s, recorded baseline %s", key, got[key], want)
		}
	}
	if len(got) != len(studyHashes) {
		t.Errorf("parallel study produced %d outputs, want %d", len(got), len(studyHashes))
	}
}

// TestResilienceWorkersEquivalence checks the profile-parallel resilience
// grid against the serial one on a small population.
func TestResilienceWorkersEquivalence(t *testing.T) {
	names := []string{"Behmor Brewer", "Smarter IKettle", "Samsung Fridge"}
	serial := New(WithDevices(names...))
	if err := serial.Run(Resilience()); err != nil {
		t.Fatal(err)
	}
	par := New(WithDevices(names...), WithWorkers(4))
	if err := par.Run(Resilience()); err != nil {
		t.Fatal(err)
	}
	a, b := serial.Report(ResilienceStudy), par.Report(ResilienceStudy)
	if a != b {
		t.Fatalf("resilience reports differ between serial and 4-worker runs:\n--- serial ---\n%s\n--- parallel ---\n%s", a, b)
	}
}

// lifecycleHashes pin the engines that boot a home outside the six-config
// study: the WAN firewall comparison, the resilience grid, the adversary
// campaign, the fleet, the timeline (clean and under lossy-wifi, which
// drives the faulted boot-retry path), and the AAAA-everywhere ablation.
// The population engines run small (12 homes, 2 days) to stay fast.
var lifecycleHashes = map[string]string{
	"firewall":            "6d55e850ef4f4b8f5d4d3b0264f5b3048f5a3dde17e1cb699d8f295e620ef0d1",
	"resilience":          "e7fc961a9f5e400dbd706ff0136288391077b3da6fa64a17da03ceafd879ef71",
	"adversary":           "52d2e2dd65bbb035560077d4bd1e6937b8ee600111fc3f4ea016a61c3315e2ce",
	"fleet":               "ebec393efa0848ee03792a4ad323696fd9dab6b96c44a2b68e4e1c7003f2101a",
	"timeline":            "87db43b0a66abc49362108a28af276415f249331f82422242f2f88834c7eca8b",
	"timeline-lossy-wifi": "258b336a98f252cfbe102bf82097b1812af407d3f51cd54c6c0c612cae30c22e",
	"ablation-aaaa":       "945438c03dd9786810abdc4ac915585a6fd150bc284de8bfe3e749486b043b9c",
}

// TestLifecycleHashes checks each engine's rendered output against its
// recorded sha256.
func TestLifecycleHashes(t *testing.T) {
	if testing.Short() {
		t.Skip("seven engine runs; skipped with -short")
	}
	timelineCfg := TimelineConfig(timeline.Config{Homes: 12, Seed: 2})
	runs := map[string]func() (string, error){
		"firewall": func() (string, error) {
			lab := New()
			if err := lab.Run(FirewallComparison()); err != nil {
				return "", err
			}
			return report.FirewallExposure(lab.FirewallCmp), nil
		},
		"resilience": func() (string, error) {
			lab := New(WithDevices("Behmor Brewer", "Smarter IKettle", "Samsung Fridge"))
			err := lab.Run(Resilience())
			return lab.Report(ResilienceStudy), err
		},
		"adversary": func() (string, error) {
			lab := New(WithWorkers(2))
			err := lab.Run(Adversary(12, Seed(3)))
			return lab.Report(AdversaryStudy), err
		},
		"fleet": func() (string, error) {
			lab := New(WithWorkers(2))
			err := lab.Run(Fleet(12, Seed(3)))
			return lab.Report(FleetStudy), err
		},
		"timeline": func() (string, error) {
			lab := New(WithWorkers(2))
			err := lab.Run(Timeline(Days(2), timelineCfg))
			return lab.Report(TimelineStudy), err
		},
		"timeline-lossy-wifi": func() (string, error) {
			lab := New(WithWorkers(2))
			err := lab.Run(Timeline(Days(2), timelineCfg, Impairments(faults.LossyWiFi())))
			return lab.Report(TimelineStudy), err
		},
		"ablation-aaaa": func() (string, error) {
			lab := NewWithOptions(Options{AAAAEverywhere: true})
			if err := lab.Run(); err != nil {
				return "", err
			}
			return lab.FullReport(), nil
		},
	}
	for name, want := range lifecycleHashes {
		t.Run(name, func(t *testing.T) {
			out, err := runs[name]()
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256([]byte(out))
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("%s sha256 = %s, recorded %s", name, got, want)
			}
		})
	}
}
