package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCmd invokes run with captured output streams.
func runCmd(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestBadFlagExitsUsage(t *testing.T) {
	code, _, stderr := runCmd("-no-such-flag")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr, "flag provided but not defined") {
		t.Errorf("stderr missing flag error: %q", stderr)
	}
}

func TestPositionalArgRejected(t *testing.T) {
	code, _, stderr := runCmd("table3")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr, "unknown argument") {
		t.Errorf("stderr missing diagnosis: %q", stderr)
	}
}

func TestUnknownArtifactListsKnownOnes(t *testing.T) {
	code, _, stderr := runCmd("-artifact", "table99")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	for _, want := range []string{"unknown artifact", "table3", "resilience"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr missing %q: %q", want, stderr)
		}
	}
}

func TestUnknownFaultProfileRejected(t *testing.T) {
	code, _, stderr := runCmd("-fault", "solar-flare")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr, "solar-flare") {
		t.Errorf("stderr missing profile name: %q", stderr)
	}
}

func TestUnknownDeviceRejected(t *testing.T) {
	code, _, stderr := runCmd("-devices", "Quantum Toaster")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr, "Quantum Toaster") {
		t.Errorf("stderr missing device name: %q", stderr)
	}
}

func TestNegativeFleetRejected(t *testing.T) {
	if code, _, _ := runCmd("-fleet", "-3"); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

func TestWorkersAppliesToEveryEngine(t *testing.T) {
	code, stdout, _ := runCmd("-workers", "4", "-artifact", "table3")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	_, serial, _ := runCmd("-artifact", "table3")
	if stdout != serial {
		t.Fatalf("-workers 4 changed the table3 artifact")
	}
}

func TestListIncludesEveryArtifact(t *testing.T) {
	code, stdout, _ := runCmd("-list")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	for _, want := range []string{"table3", "fleet", "firewall", "resilience", "adversary"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("-list missing %q:\n%s", want, stdout)
		}
	}
}

func TestNegativeAdversaryRejected(t *testing.T) {
	if code, _, _ := runCmd("-adversary", "-5"); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

func TestCampaignSeedWithoutAdversaryRejected(t *testing.T) {
	code, _, stderr := runCmd("-campaign-seed", "7")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr, "-campaign-seed only applies") {
		t.Errorf("stderr missing diagnosis: %q", stderr)
	}
}

// TestAdversaryFlag runs the attack end to end on a small population:
// the command exits 0 and prints only the adversary report.
func TestAdversaryFlag(t *testing.T) {
	code, stdout, stderr := runCmd("-adversary", "6", "-campaign-seed", "3", "-workers", "4")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (stderr: %s)", code, stderr)
	}
	for _, want := range []string{"Adversary — 6 homes", "campaign seed 3", "Address discovery", "Worm propagation"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("adversary report missing %q:\n%s", want, stdout)
		}
	}
	if strings.Contains(stdout, "Table 3") {
		t.Errorf("-adversary alone must not render the connectivity artifacts")
	}
}

// TestResilienceFlag runs the impairment grid end to end on a small
// population and checks the artifact shape: the command exits 0, prints
// only the resilience report, and the clamped tunnel shows up in it.
func TestResilienceFlag(t *testing.T) {
	code, stdout, stderr := runCmd("-resilience", "-devices", "TiVo Stream,Apple TV,Wyze Cam")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (stderr: %s)", code, stderr)
	}
	for _, want := range []string{"Resilience", "clamped-tunnel", "lossy-wifi", "ipv6-only"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("resilience report missing %q:\n%s", want, stdout)
		}
	}
	if strings.Contains(stdout, "Table 3") {
		t.Errorf("-resilience alone must not render the connectivity artifacts")
	}
}

// TestResilienceArtifactSelection: -artifact resilience with -resilience
// renders the grid, and asking for it without running reports not-run.
func TestResilienceArtifactSelection(t *testing.T) {
	code, stdout, _ := runCmd("-resilience", "-artifact", "resilience", "-devices", "Wyze Cam")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	if !strings.Contains(stdout, "Functional devices per configuration") {
		t.Errorf("missing grid table:\n%s", stdout)
	}
}

// TestMetricsAndProgressOnFleetPath: the fleet-only early return still
// writes the -metrics snapshot, and -progress streams one line per home.
func TestMetricsAndProgressOnFleetPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	code, _, stderr := runCmd("-fleet", "3", "-artifact", "fleet", "-metrics", path, "-progress")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (stderr: %s)", code, stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("metrics file not written on the fleet-only path: %v", err)
	}
	for _, want := range []string{`"sim_time"`, "fleet_homes_completed_total", "device_functional_tests_total"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("metrics snapshot missing %q", want)
		}
	}
	if got := strings.Count(stderr, "[fleet]"); got != 3 {
		t.Errorf("progress stream has %d fleet lines, want 3\n%s", got, stderr)
	}
	if !strings.Contains(stderr, "metrics snapshot written to") {
		t.Errorf("stderr missing the metrics confirmation: %q", stderr)
	}
}

// TestMetricsCreatesParentDirs: -metrics pointing into a directory that
// does not exist yet creates it instead of failing the export.
func TestMetricsCreatesParentDirs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out", "run-1", "metrics.json")
	code, _, stderr := runCmd("-fleet", "2", "-artifact", "fleet", "-metrics", path)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (stderr: %s)", code, stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("metrics file not written under a fresh directory: %v", err)
	}
	if !strings.Contains(string(data), `"sim_time"`) {
		t.Errorf("metrics snapshot missing the sim_time header:\n%s", data)
	}
}

// TestMetricsPrometheusFormat: a .prom suffix selects the text format,
// on the resilience-only early return.
func TestMetricsPrometheusFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.prom")
	code, _, stderr := runCmd("-resilience", "-devices", "Wyze Cam", "-metrics", path)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (stderr: %s)", code, stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("metrics file not written on the resilience-only path: %v", err)
	}
	for _, want := range []string{"# TYPE v6lab_experiment_runs_total counter", "v6lab_device_failure_stages_total{stage="} {
		if !strings.Contains(string(data), want) {
			t.Errorf("Prometheus snapshot missing %q", want)
		}
	}
}

// TestInvalidChoiceFlagsListValidChoices: every enumerated flag rejects an
// unknown value with an error that lists the valid choices — -fault used
// to relay a bare library error while -firewall enumerated its options.
func TestInvalidChoiceFlagsListValidChoices(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want []string
	}{
		{
			name: "fault",
			args: []string{"-fault", "solar-flare"},
			want: []string{"solar-flare", "clean|lossy-wifi|clamped-tunnel|flaky-dnsmasq"},
		},
		{
			name: "firewall",
			args: []string{"-firewall", "moat"},
			want: []string{"moat", "open|stateful|pinhole|compare"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCmd(tc.args...)
			if code != 2 {
				t.Fatalf("exit code = %d, want 2", code)
			}
			for _, want := range tc.want {
				if !strings.Contains(stderr, want) {
					t.Errorf("stderr missing %q: %q", want, stderr)
				}
			}
		})
	}
}

func TestInvalidHorizonRejected(t *testing.T) {
	for _, bad := range []string{"nope", "0d", "-3d"} {
		code, _, stderr := runCmd("-horizon", bad)
		if code != 2 {
			t.Fatalf("-horizon %s: exit code = %d, want 2", bad, code)
		}
		if !strings.Contains(stderr, "horizon") {
			t.Errorf("-horizon %s: stderr missing diagnosis: %q", bad, stderr)
		}
	}
}

// TestHorizonFlag: -horizon runs the long-horizon timeline over the -fleet
// population and renders only the timeline artifact.
func TestHorizonFlag(t *testing.T) {
	code, stdout, stderr := runCmd("-horizon", "24h", "-fleet", "4", "-workers", "2")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr:\n%s", code, stderr)
	}
	for _, want := range []string{"Timeline — 4 homes over 1.0 simulated days", "Lease-renewal funnel"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout)
		}
	}
	if strings.Contains(stdout, "Fleet —") {
		t.Errorf("-horizon with -fleet ran a separate fleet study:\n%s", stdout)
	}
}
