package ndp

import (
	"net/netip"
	"reflect"
	"testing"
	"time"

	"v6lab/internal/packet"
)

var testMAC = packet.MAC{0x02, 0x42, 0x00, 0x00, 0x00, 0x07}

func TestRouterAdvertRoundTrip(t *testing.T) {
	ra := &RouterAdvert{
		HopLimit:       64,
		Managed:        true,
		OtherConfig:    true,
		RouterLifetime: 1800 * time.Second,
		MTU:            1500,
		SourceLinkAddr: testMAC,
		Prefixes: []PrefixInfo{
			{
				Prefix: netip.MustParsePrefix("2001:470:8:100::/64"), OnLink: true, AutonomousFlag: true,
				ValidLifetime: 86400 * time.Second, PreferredLifetime: 14400 * time.Second,
			},
			{
				Prefix: netip.MustParsePrefix("fd42:6c61:6221::/64"), OnLink: true, AutonomousFlag: true,
				ValidLifetime: 86400 * time.Second, PreferredLifetime: 86400 * time.Second,
			},
		},
		RDNSS: []RDNSS{{
			Lifetime: 600 * time.Second,
			Servers:  []netip.Addr{netip.MustParseAddr("2001:4860:4860::8888")},
		}},
	}
	got := &RouterAdvert{}
	if err := ParseRouterAdvertInto(got, ra.AppendBody(nil)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ra) {
		t.Errorf("RA round trip:\n got %+v\nwant %+v", got, ra)
	}
}

func TestRouterAdvertMinimal(t *testing.T) {
	ra := &RouterAdvert{RouterLifetime: 0}
	got := &RouterAdvert{}
	if err := ParseRouterAdvertInto(got, ra.AppendBody(nil)); err != nil {
		t.Fatal(err)
	}
	if got.Managed || got.OtherConfig || len(got.Prefixes) != 0 || len(got.RDNSS) != 0 {
		t.Errorf("minimal RA: %+v", got)
	}
}

func TestRouterSolicitRoundTrip(t *testing.T) {
	for _, rs := range []RouterSolicit{{SourceLinkAddr: testMAC}, {}} {
		got, err := ParseRouterSolicit(rs.AppendBody(nil))
		if err != nil {
			t.Fatal(err)
		}
		if got.SourceLinkAddr != rs.SourceLinkAddr {
			t.Errorf("RS slla = %v, want %v", got.SourceLinkAddr, rs.SourceLinkAddr)
		}
	}
}

func TestNeighborSolicitRoundTrip(t *testing.T) {
	target := netip.MustParseAddr("fe80::42:ff:fe00:7")
	ns := NeighborSolicit{Target: target, SourceLinkAddr: testMAC}
	got, err := ParseNeighborSolicit(ns.AppendBody(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Target != target || got.SourceLinkAddr != testMAC {
		t.Errorf("NS: %+v", got)
	}
	// DAD probe: unspecified source means no SLLA option (RFC 4861 §4.3).
	dad := NeighborSolicit{Target: target}
	got, err = ParseNeighborSolicit(dad.AppendBody(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !got.SourceLinkAddr.IsZero() {
		t.Error("DAD NS carried SLLA")
	}
}

func TestNeighborAdvertRoundTrip(t *testing.T) {
	na := NeighborAdvert{
		Router: true, Solicited: true, Override: true,
		Target:         netip.MustParseAddr("2001:470:8:100::1"),
		TargetLinkAddr: testMAC,
	}
	got, err := ParseNeighborAdvert(na.AppendBody(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, na) {
		t.Errorf("NA: %+v", got)
	}
}

func TestTruncatedBodies(t *testing.T) {
	if err := ParseRouterAdvertInto(&RouterAdvert{}, make([]byte, 11)); err == nil {
		t.Error("RA: want error")
	}
	if _, err := ParseNeighborSolicit(make([]byte, 19)); err == nil {
		t.Error("NS: want error")
	}
	if _, err := ParseNeighborAdvert(make([]byte, 10)); err == nil {
		t.Error("NA: want error")
	}
	if _, err := ParseRouterSolicit(make([]byte, 3)); err == nil {
		t.Error("RS: want error")
	}
}

func TestZeroLengthOptionRejected(t *testing.T) {
	body := make([]byte, 4)
	body = append(body, OptSourceLinkAddr, 0) // length 0 is illegal
	if _, err := ParseRouterSolicit(body); err == nil {
		t.Error("want error for zero-length option")
	}
}

func TestUnknownOptionSkipped(t *testing.T) {
	body := make([]byte, 4)
	body = append(body, 200, 1, 0, 0, 0, 0, 0, 0) // unknown type, valid length
	rs, err := ParseRouterSolicit(body)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.SourceLinkAddr.IsZero() {
		t.Error("unexpected slla")
	}
}

func TestIsNDPType(t *testing.T) {
	for typ, want := range map[uint8]bool{
		packet.ICMPv6TypeRouterSolicit:   true,
		packet.ICMPv6TypeRouterAdvert:    true,
		packet.ICMPv6TypeNeighborSolicit: true,
		packet.ICMPv6TypeNeighborAdvert:  true,
		packet.ICMPv6TypeEchoRequest:     false,
		packet.ICMPv6TypeMLDv2Report:     false,
	} {
		if IsNDPType(typ) != want {
			t.Errorf("IsNDPType(%d) != %v", typ, want)
		}
	}
}

func TestLifetimeClamping(t *testing.T) {
	ra := &RouterAdvert{RouterLifetime: -5 * time.Second}
	got := &RouterAdvert{}
	if err := ParseRouterAdvertInto(got, ra.AppendBody(nil)); err != nil {
		t.Fatal(err)
	}
	if got.RouterLifetime != 0 {
		t.Errorf("negative lifetime = %v", got.RouterLifetime)
	}
}
