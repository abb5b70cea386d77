package analysis

import (
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"time"

	"v6lab/internal/cloud"
	"v6lab/internal/device"
	"v6lab/internal/dnsmsg"
	"v6lab/internal/packet"
	"v6lab/internal/router"
)

func TestSymtabOneIDPerCanonicalName(t *testing.T) {
	tab := symtab{ids: map[string]sym{}}
	want := tab.lookup([]byte("cam.vendor.example")).id
	for _, s := range []string{"Cam.Vendor.Example", "cam.vendor.example.", "CAM.VENDOR.EXAMPLE.", "cam.vendor.example"} {
		if got := tab.Intern([]byte(s)); got != s {
			t.Errorf("Intern(%q) = %q, want the spelling itself", s, got)
		}
		if got := tab.id(s); got != want {
			t.Errorf("id(%q) = %d, want %d", s, got, want)
		}
	}
	if other := tab.lookup([]byte("edge.cdn.example")).id; other == want {
		t.Errorf("two names share ID %d", other)
	}
	if !slices.Equal(tab.names, []string{"cam.vendor.example", "edge.cdn.example"}) {
		t.Errorf("names = %q, want the two canonical names", tab.names)
	}
}

// query is one AAAA question from the test device's EUI-64 address.
func query(t *testing.T, name string) []byte {
	t.Helper()
	wire, err := (&dnsmsg.Message{ID: 1, RecursionDesired: true,
		Questions: []dnsmsg.Question{{Name: name, Type: dnsmsg.TypeAAAA}}}).Pack()
	if err != nil {
		t.Fatal(err)
	}
	dns6 := netip.MustParseAddr("2001:4860:4860::8888")
	return frame(t,
		&packet.Ethernet{Dst: router.RouterMAC, Src: obsMAC, Type: packet.EtherTypeIPv6},
		&packet.IPv6{NextHeader: packet.IPProtocolUDP, Src: gua, Dst: dns6},
		&packet.UDP{SrcPort: 9999, DstPort: 53, Src: gua, Dst: dns6},
		packet.Raw(wire))
}

// TestUnregisteredNameCounts: the symbol table is a cache, not a filter.
// A name the cloud registry does not hold is still counted, and labelled
// a support party, as the wire shows it.
func TestUnregisteredNameCounts(t *testing.T) {
	const name = "never.registered.example"
	cl := cloud.New()
	if cl.Lookup(name) != nil {
		t.Fatalf("%s is registered", name)
	}
	e := observeAll(t, query(t, name))
	if !queried(e, obs1(t, e), name, dnsmsg.TypeAAAA, true) {
		t.Fatal("query for an unregistered name not recorded")
	}
	r := e.EUI64Exposure([]*device.Profile{obsProf}, cl)
	if r.DNS != 1 || r.DNSNames != 1 || r.DNSSupport != 1 {
		t.Errorf("EUI-64 DNS exposure = %+v, want the one unregistered name as support", r)
	}
}

// TestRemapAgreesAcrossNameOrders: two experiments that first saw the
// same names in opposite orders give them opposite IDs, and agree once
// FromStudy's remap moves both onto the dataset's table.
func TestRemapAgreesAcrossNameOrders(t *testing.T) {
	a, b := query(t, "a.vendor.example"), query(t, "b.vendor.example")
	run := func(mode device.Mode, frames ...[]byte) *ExpObs {
		o := NewObserver("test", mode, obsMap)
		for _, f := range frames {
			o.Add(time.Time{}, f)
		}
		return o.Finalize(nil)
	}
	e1, e2 := run(device.ModeV6Only, a, b), run(device.ModeDual, b, a)
	if slices.Equal(e1.names, e2.names) {
		t.Fatalf("both experiments named %q in one order", e1.names)
	}
	ds := &Dataset{Exps: []*ExpObs{e1, e2}, Profiles: []*device.Profile{obsProf}}
	ds.buildViews()
	v6, dual, all := ds.Device(V6Only, obsProf.Name), ds.Device(DualStack, obsProf.Name), ds.Device(V6Enabled, obsProf.Name)
	want := []string{"a.vendor.example/AAAA/true", "b.vendor.example/AAAA/true"}
	for _, got := range []*DeviceObs{v6, dual, all} {
		if q := inNames(got, ds.names).Queries; !reflect.DeepEqual(q, want) {
			t.Errorf("view queries = %q, want %q", q, want)
		}
	}
	if !slices.Equal(v6.queries, dual.queries) || !slices.Equal(v6.eui64DNS, dual.eui64DNS) {
		t.Errorf("remapped IDs disagree: %v/%v vs %v/%v", v6.queries, v6.eui64DNS, dual.queries, dual.eui64DNS)
	}
}
