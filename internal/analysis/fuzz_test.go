package analysis

import (
	"bytes"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"v6lab/internal/cloud"
	"v6lab/internal/device"
	"v6lab/internal/experiment"
	"v6lab/internal/netsim"
	"v6lab/internal/packet"
	"v6lab/internal/tlssim"
	"v6lab/internal/world"
)

// recorder keeps a copy of the first frame of each kind the fuzz corpus
// is seeded with.
type recorder struct {
	dec    packet.Decoder
	frames map[string][]byte
}

func (r *recorder) Add(_ time.Time, f []byte) {
	p := r.dec.Parse(f)
	kind := ""
	switch {
	case p.Err != nil:
	case p.UDP != nil && p.UDP.SrcPort == 53 && bytes.IndexByte(p.UDP.PayloadData[min(12, len(p.UDP.PayloadData)):], 0xc0) >= 0:
		kind = "compressed DNS response"
	case p.TCP != nil && len(p.TCP.PayloadData) > 0:
		if name, err := tlssim.SNI(p.TCP.PayloadData); err == nil && len(name) > 0 {
			kind = "TLS ClientHello"
		}
	case p.ICMPv6 != nil && p.ICMPv6.Type == packet.ICMPv6TypeNeighborSolicit && p.IPv6.Src.IsUnspecified():
		kind = "DAD NS"
	case p.UDP != nil && p.UDP.SrcPort == 547 && len(p.UDP.PayloadData) > 0 && p.UDP.PayloadData[0] == 7:
		kind = "DHCPv6 reply"
	}
	if _, ok := r.frames[kind]; kind != "" && !ok {
		r.frames[kind] = bytes.Clone(f)
	}
}

var (
	fuzzOnce  sync.Once
	fuzzWorld *world.World
	fuzzSeeds map[string][]byte
)

// recorded runs one dual-stack stateful experiment and returns its world
// and a frame of each seed kind.
func recorded(tb testing.TB) (*world.World, map[string][]byte) {
	fuzzOnce.Do(func() {
		rec := &recorder{frames: map[string][]byte{}}
		fuzzWorld = world.Build(nil)
		st := experiment.NewStudyWith(experiment.StudyOptions{World: fuzzWorld,
			Observe: func(experiment.Config, *experiment.Study, *netsim.Network) netsim.Tap { return rec }})
		cfg, _ := experiment.ConfigByID("dual-stack-stateful")
		if _, err := st.RunExperiment(cfg); err != nil {
			tb.Fatalf("recording run: %v", err)
		}
		fuzzSeeds = rec.frames
	})
	if len(fuzzSeeds) != 4 {
		tb.Fatalf("recorded seed kinds %d, want 4", len(fuzzSeeds))
	}
	return fuzzWorld, fuzzSeeds
}

// FuzzObserver feeds an arbitrary frame, twice, to two self-decoding
// observers of different modes, finalizes both and builds the group views
// and tables over them. Nothing may panic, and two fresh runs over the
// same bytes must agree.
func FuzzObserver(f *testing.F) {
	w, seeds := recorded(f)
	var kinds []string
	for kind := range seeds {
		kinds = append(kinds, kind)
	}
	slices.Sort(kinds)
	for _, kind := range kinds {
		f.Add(seeds[kind])
	}
	run := func(frame []byte) []any {
		ds := &Dataset{Profiles: w.Profiles, Cloud: cloud.New(), ActiveAAAA: map[string]bool{}}
		for _, mode := range []device.Mode{device.ModeV6Only, device.ModeDual} {
			o := NewObserver("fuzz", mode, w.MACToDevice)
			o.Add(time.Time{}, frame)
			o.Add(time.Time{}, frame)
			ds.Exps = append(ds.Exps, o.Finalize(nil))
		}
		ds.buildViews()
		out := []any{ds.Table3(), ds.Table5(), ds.Table6(), ds.Table9(), ds.EUI64Exposure(), ds.DADAudit(), ds.Tracking()}
		for _, p := range w.Profiles {
			out = append(out, inNames(ds.Device(AllRuns, p.Name), ds.names))
		}
		return out
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		if a, b := run(frame), run(frame); !reflect.DeepEqual(a, b) {
			t.Errorf("two observers fed the same frame disagree:\n%+v\n%+v", a, b)
		}
	})
}
