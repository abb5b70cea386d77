package experiment

import (
	"context"
	"testing"

	"v6lab/internal/packet"
	"v6lab/internal/world"
)

func TestSingleExperimentProducesTraffic(t *testing.T) {
	st := NewStudyWith(StudyOptions{World: world.Build(nil)})
	res, h, err := st.RunExperimentWith(Configs[0], nil) // IPv4-only
	if err != nil {
		t.Fatal(err)
	}
	if res.Capture.Len() == 0 {
		t.Fatal("empty capture")
	}
	// Every device must be functional over IPv4 (the paper's baseline).
	for name, ok := range res.Functional {
		if !ok {
			t.Errorf("%s not functional in IPv4-only", name)
		}
	}
	leases := 0
	for _, s := range st.Stacks {
		if _, ok := h.Router.LeaseFor(s.MAC); ok {
			leases++
		}
	}
	if leases != 93 {
		t.Errorf("DHCPv4 leases = %d, want 93", leases)
	}
	t.Logf("ipv4-only: %d frames", res.Capture.Len())
}

func TestIPv6OnlyFunctionalDevices(t *testing.T) {
	st := NewStudyWith(StudyOptions{World: world.Build(nil)})
	// V6Seq order matters for rotation schedules but functionality only
	// needs the baseline run.
	res, h, err := st.RunExperimentWith(Configs[1], nil) // IPv6-only baseline
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"Apple TV": true, "Google TV": true, "TiVo Stream": true,
		"Meta Portal Mini": true, "Google Home Mini": true,
		"Google Nest Mini": true, "Nest Hub": true, "Nest Hub Max": true,
	}
	functional := 0
	for name, ok := range res.Functional {
		if ok {
			functional++
			if !want[name] {
				t.Errorf("unexpected functional device in IPv6-only: %s", name)
			}
		}
	}
	if functional != 8 {
		t.Errorf("functional devices in IPv6-only = %d, want 8", functional)
	}
	if len(h.Router.Neighbors) == 0 {
		t.Error("router neighbor table empty")
	}
	t.Logf("ipv6-only: %d frames, %d neighbors", res.Capture.Len(), len(h.Router.Neighbors))
}

func TestFullStudyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full study in -short mode")
	}
	st := NewStudyWith(StudyOptions{World: world.Build(nil)})
	if err := st.RunAllContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(st.Results) != 6 {
		t.Fatalf("results = %d", len(st.Results))
	}
	for _, r := range st.Results {
		if r.Capture.Len() == 0 {
			t.Errorf("%s: empty capture", r.Config.ID)
		}
	}
	if len(st.ActiveDNS) == 0 {
		t.Error("no active DNS results")
	}
	if st.Scan == nil || len(st.Scan.Devices) != 93 {
		t.Fatalf("scan report incomplete")
	}
	// §5.4.2 findings.
	if st.Scan.DevicesWithV4OnlyPorts != 6 {
		t.Errorf("devices with v4-only ports = %d, want 6", st.Scan.DevicesWithV4OnlyPorts)
	}
	var fridge *DeviceScan
	for i := range st.Scan.Devices {
		if st.Scan.Devices[i].Device == "Samsung Fridge" {
			fridge = &st.Scan.Devices[i]
		}
	}
	if fridge == nil {
		t.Fatal("no fridge scan")
	}
	if got, want := fridge.V6OnlyTCP, []uint16{37993, 46525, 46757}; len(got) != len(want) {
		t.Errorf("fridge v6-only ports = %v, want %v", got, want)
	}
	if st.Scan.DevicesWithV6OnlyPorts != 1 {
		t.Errorf("devices with v6-only ports = %d, want 1", st.Scan.DevicesWithV6OnlyPorts)
	}
}

func TestMACsAreUniqueAndUnicast(t *testing.T) {
	st := NewStudyWith(StudyOptions{World: world.Build(nil)})
	seen := map[packet.MAC]bool{}
	for _, s := range st.Stacks {
		if seen[s.MAC] {
			t.Errorf("duplicate MAC %v", s.MAC)
		}
		seen[s.MAC] = true
		if s.MAC.IsMulticast() {
			t.Errorf("%s: multicast MAC", s.Prof.Name)
		}
	}
}
