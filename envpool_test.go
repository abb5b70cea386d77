package v6lab

// Byte-identity of the shared environment: two labs with the same seed
// over one Env — the second drawing warm environments from the pool the
// first parked — must both reproduce the recorded cold-run hashes for the
// full report and all six pcaps. This is the pool's Reset contract under
// test: clock rewind, DHCPv4 XID seeding, stack and switch recycling, and
// query-counter swaps must leave no byte of residue from the prior study.

import "testing"

func TestWarmEnvPoolByteIdentity(t *testing.T) {
	env := NewEnv()

	coldPcaps := newPcapSink()
	cold := New(WithEnv(env), WithWorkers(6), WithPcaps(coldPcaps.open))
	if err := cold.Run(); err != nil {
		t.Fatal(err)
	}
	coldHashes := labHashes(t, cold, coldPcaps)
	for key, want := range studyHashes {
		if coldHashes[key] != want {
			t.Errorf("cold %s = %s, recorded baseline %s", key, coldHashes[key], want)
		}
	}
	if env.IdleEnvs() == 0 {
		t.Fatal("pool holds no environments after the first parallel run")
	}

	warmPcaps := newPcapSink()
	warm := New(WithEnv(env), WithWorkers(6), WithPcaps(warmPcaps.open))
	if err := warm.Run(); err != nil {
		t.Fatal(err)
	}
	warmHashes := labHashes(t, warm, warmPcaps)
	for key, want := range studyHashes {
		if warmHashes[key] != want {
			t.Errorf("warm %s = %s, recorded baseline %s", key, warmHashes[key], want)
		}
	}
	if len(warmHashes) != len(studyHashes) {
		t.Errorf("warm study produced %d outputs, want %d", len(warmHashes), len(studyHashes))
	}
}

// TestAblationKeepsPrivateWorld pins the guard that keeps ablations off a
// shared Env: mutating every profile through WithAblation must leave the
// Env's world untouched for the next lab.
func TestAblationKeepsPrivateWorld(t *testing.T) {
	env := NewEnv()
	abl := New(WithAblation(Options{ForcePrivacyExtensions: true}), WithEnv(env))
	plain := New(WithEnv(env))
	if abl.Study.World == plain.Study.World {
		t.Fatal("ablation lab shares the Env world it mutates")
	}
	eui64 := false
	for _, p := range plain.Study.Profiles {
		if p.EUI64 {
			eui64 = true
			break
		}
	}
	if !eui64 {
		t.Fatal("shared world lost its EUI-64 profiles to an ablation lab")
	}
}
