package server

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"v6lab/internal/device"
)

// goldenStudyHash is the recorded options hash of the canonical default
// study spec ({"kind":"study"}). It is deliberately hardcoded: any change
// to JobSpec's hashed fields, their canonicalization, or the hashedSpec
// layout changes every hash, silently splitting the result cache across
// deployments — this test makes that failure loud instead.
const goldenStudyHash = "3f187b0dd9130eb5e52e31fe326a2d814d6fbe7a29feacc9acb69750ed2dcb43"

func TestOptionsHashGolden(t *testing.T) {
	got := JobSpec{Kind: KindStudy}.OptionsHash()
	if got != goldenStudyHash {
		t.Errorf("default study options hash changed:\n got %s\nwant %s\n"+
			"If the spec layout changed intentionally, update the golden hash — and "+
			"know that every deployed cache key just changed with it.", got, goldenStudyHash)
	}
}

// roundTripSpecs are specs of every shape the JSON round-trip covers.
var roundTripSpecs = []JobSpec{
	{Kind: KindStudy},
	{Kind: KindStudy, Seed: 7, Devices: []string{"Apple TV", "Wyze Cam"}, Fault: "lossy-wifi"},
	{Kind: KindFirewall, Policies: []string{"deny", "open"}},
	{Kind: KindFleet, FleetHomes: 20, FleetSeed: 3, Workers: 8},
	{Kind: KindResilience, Seed: 9, MaxFramesPerRun: 500},
	{Kind: KindAdversary, FleetHomes: 12, CampaignSeed: 5},
}

// TestCanonicalJSONRoundTrip: a canonical spec survives a JSON
// round-trip unchanged — encode, decode, re-canonicalize, same struct
// and same hash.
func TestCanonicalJSONRoundTrip(t *testing.T) {
	for _, spec := range roundTripSpecs {
		c := spec.Canonicalize()
		blob, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		var back JobSpec
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatal(err)
		}
		if got := back.Canonicalize(); !reflect.DeepEqual(got, c) {
			t.Errorf("canonical spec changed across a JSON round-trip:\nbefore %+v\nafter  %+v", c, got)
		}
		if got, want := back.CacheKey(), spec.CacheKey(); got != want {
			t.Errorf("cache key changed across a JSON round-trip: %v vs %v", got, want)
		}
	}
}

// reorderedDocs describe one experiment with different field and device
// order.
var reorderedDocs = []string{
	`{"kind":"study","seed":5,"devices":["Wyze Cam","Apple TV"],"fault":"lossy-wifi"}`,
	`{"fault":"lossy-wifi","devices":["Apple TV","Wyze Cam"],"seed":5,"kind":"study"}`,
}

// TestOptionsHashFieldOrderIndependence: the same experiment described
// with different JSON field order and different device order hashes
// identically.
func TestOptionsHashFieldOrderIndependence(t *testing.T) {
	var keys []Key
	for _, doc := range reorderedDocs {
		var spec JobSpec
		if err := json.Unmarshal([]byte(doc), &spec); err != nil {
			t.Fatal(err)
		}
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, spec.CacheKey())
	}
	if keys[0] != keys[1] {
		t.Errorf("field/device order split the cache key: %v vs %v", keys[0], keys[1])
	}
}

// TestWorkersExcludedFromHash: worker count changes wall time, never
// bytes, so it must not split the cache.
func TestWorkersExcludedFromHash(t *testing.T) {
	a := JobSpec{Kind: KindStudy, Workers: 0}.CacheKey()
	b := JobSpec{Kind: KindStudy, Workers: 8}.CacheKey()
	if a != b {
		t.Errorf("workers split the cache key: %v vs %v", a, b)
	}
}

// TestSeedSplitsKeyNotHash: the seed is the explicit first half of the
// key, not part of the options hash.
func TestSeedSplitsKeyNotHash(t *testing.T) {
	a := JobSpec{Kind: KindResilience, Seed: 1}.CacheKey()
	b := JobSpec{Kind: KindResilience, Seed: 2}.CacheKey()
	if a.Hash != b.Hash {
		t.Errorf("seed leaked into the options hash: %s vs %s", a.Hash, b.Hash)
	}
	if a == b {
		t.Error("different seeds produced the same cache key")
	}
}

func TestCanonicalizeDefaults(t *testing.T) {
	c := JobSpec{Kind: " Study "}.Canonicalize()
	if c.Kind != KindStudy || c.Seed != 1 {
		t.Errorf("defaults not applied: %+v", c)
	}
	// A clean fault profile is the same run as no profile at all.
	if got := (JobSpec{Kind: KindStudy, Fault: "clean"}).CacheKey(); got != (JobSpec{Kind: KindStudy}).CacheKey() {
		t.Error("fault=clean split the cache key from the no-fault spec")
	}
	// Policy aliases fold onto one spelling, and the empty list expands
	// to the three defaults in report order.
	alias := JobSpec{Kind: KindFirewall, Policies: []string{"open", "deny", "pinhole"}}.CacheKey()
	expanded := JobSpec{Kind: KindFirewall}.CacheKey()
	if alias != expanded {
		t.Errorf("policy alias/expansion split the cache key: %v vs %v", alias, expanded)
	}
	// Policy *order* is report order, so it must stay significant.
	reordered := JobSpec{Kind: KindFirewall, Policies: []string{"pinhole", "stateful", "open"}}.CacheKey()
	if reordered == expanded {
		t.Error("policy order must change the key (it changes report bytes)")
	}
	// Fleet seeds default only for fleet jobs.
	if c := (JobSpec{Kind: KindFleet, FleetHomes: 5}).Canonicalize(); c.FleetSeed != 1 {
		t.Errorf("fleet seed default not applied: %+v", c)
	}
	// Adversary jobs default both the fleet seed and the campaign seed.
	if c := (JobSpec{Kind: KindAdversary, FleetHomes: 5}).Canonicalize(); c.FleetSeed != 1 || c.CampaignSeed != 1 {
		t.Errorf("adversary seed defaults not applied: %+v", c)
	}
	// The campaign seed is output-affecting, so it must split the key.
	s3 := JobSpec{Kind: KindAdversary, FleetHomes: 5, CampaignSeed: 3}.CacheKey()
	s1 := JobSpec{Kind: KindAdversary, FleetHomes: 5}.CacheKey()
	if s3 == s1 {
		t.Error("campaign seed must change the cache key (it changes report bytes)")
	}
}

func TestCanonicalDevicesRegistryOrderAndDedup(t *testing.T) {
	reg := device.Registry()
	// A permutation with a duplicate canonicalizes to registry order,
	// deduplicated.
	names := []string{reg[3].Name, reg[0].Name, reg[3].Name}
	got := canonicalDevices(names)
	want := []string{reg[0].Name, reg[3].Name}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("canonicalDevices(%v) = %v, want %v", names, got, want)
	}
	// Listing the whole registry is the default testbed: nil.
	var all []string
	for _, p := range reg {
		all = append(all, p.Name)
	}
	if got := canonicalDevices(all); got != nil {
		t.Errorf("full-registry device list should canonicalize to nil, got %d names", len(got))
	}
}

// invalidSpecs are specs Validate must reject, each with a fragment of
// the error it must return.
var invalidSpecs = []struct {
	spec JobSpec
	want string
}{
	{JobSpec{Kind: "espresso"}, "unknown kind"},
	{JobSpec{Kind: KindStudy, Devices: []string{"Quantum Toaster"}}, "unknown device"},
	{JobSpec{Kind: KindStudy, Fault: "solar-flare"}, "unknown profile"},
	{JobSpec{Kind: KindStudy, Policies: []string{"open"}}, "policies only apply"},
	{JobSpec{Kind: KindFirewall, Policies: []string{"moat"}}, "unknown policy"},
	{JobSpec{Kind: KindFleet}, "fleet_homes > 0"},
	{JobSpec{Kind: KindStudy, FleetHomes: 5}, "only apply to kind"},
	{JobSpec{Kind: KindStudy, MaxFramesPerRun: -1}, "non-negative"},
	{JobSpec{Kind: KindStudy, Workers: -2}, "non-negative"},
	{JobSpec{Kind: KindAdversary}, "fleet_homes > 0"},
	{JobSpec{Kind: KindFleet, FleetHomes: 5, CampaignSeed: 2}, "campaign_seed only applies"},
}

// validSpecs are specs Validate must accept.
var validSpecs = []JobSpec{
	{Kind: KindStudy},
	{Kind: KindFirewall, Policies: []string{"stateful-default-deny"}},
	{Kind: KindFleet, FleetHomes: 10, FleetSeed: 2},
	{Kind: KindResilience, Fault: "clamped-tunnel"},
	{Kind: KindAdversary, FleetHomes: 8, CampaignSeed: 4},
}

func TestValidateRejects(t *testing.T) {
	for _, c := range invalidSpecs {
		err := c.spec.Validate()
		if err == nil {
			t.Errorf("Validate(%+v) = nil, want error containing %q", c.spec, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate(%+v) = %q, want it to contain %q", c.spec, err, c.want)
		}
	}
	for _, spec := range validSpecs {
		if err := spec.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", spec, err)
		}
	}
}
