package server

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzJobSpecCanonicalize feeds JSON job specs, as POST /v1/jobs receives
// them, through validation and canonicalization. Validate must never
// panic; Canonicalize must be idempotent; and the options hash must not
// change when the device list is rotated, since device order never
// changes a run.
func FuzzJobSpecCanonicalize(f *testing.F) {
	seeds := append([]JobSpec(nil), roundTripSpecs...)
	seeds = append(seeds, validSpecs...)
	for _, c := range invalidSpecs {
		seeds = append(seeds, c.spec)
	}
	seeds = append(seeds, JobSpec{Kind: KindTimeline, FleetHomes: 8, Horizon: "48h"})
	for i, spec := range seeds {
		blob, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(blob), uint8(i))
	}
	for _, doc := range reorderedDocs {
		f.Add(doc, uint8(1))
	}
	f.Fuzz(func(t *testing.T, doc string, rot uint8) {
		var spec JobSpec
		if json.Unmarshal([]byte(doc), &spec) != nil {
			return
		}
		_ = spec.Validate()
		c := spec.Canonicalize()
		_ = c.Validate()
		if cc := c.Canonicalize(); !reflect.DeepEqual(cc, c) {
			t.Fatalf("Canonicalize is not idempotent:\nonce  %+v\ntwice %+v", c, cc)
		}
		if n := len(spec.Devices); n > 1 {
			k := int(rot) % n
			rotated := spec
			rotated.Devices = append(append([]string(nil), spec.Devices[k:]...), spec.Devices[:k]...)
			if a, b := spec.OptionsHash(), rotated.OptionsHash(); a != b {
				t.Fatalf("rotating devices %v by %d changed the options hash: %s vs %s", spec.Devices, k, a, b)
			}
		}
	})
}
