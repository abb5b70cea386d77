package mdns

import (
	"net/netip"
	"testing"
)

// FuzzMDNSParse: Parse never panics, and every payload it accepts names a
// service.
func FuzzMDNSParse(f *testing.F) {
	for _, a := range []*Announcement{
		{
			Instance: "meross-matter-plug", Service: MatterService, Port: 5540,
			Addr: netip.MustParseAddr("fd42:6c61:6221::77"),
			TXT:  []string{"VP=4874+77", "DT=266"},
		},
		{Instance: "hub", Service: HAPService, Port: 80},
	} {
		wire, err := a.Pack()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
	}
	f.Add([]byte("nope"))

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := Parse(data)
		if err == nil && a.Service == "" {
			t.Fatalf("Parse accepted %x with no service", data)
		}
	})
}
