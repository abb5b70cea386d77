package ndp

import (
	"bytes"
	"net/netip"
	"reflect"
	"testing"
	"time"
)

// testRA is the advert the testbed router sends in a stateful home: two
// SLAAC prefixes, an MTU, its link-layer address and one RDNSS server.
func testRA() *RouterAdvert {
	return &RouterAdvert{
		HopLimit: 64, Managed: true, OtherConfig: true,
		RouterLifetime: 1800 * time.Second, MTU: 1500, SourceLinkAddr: testMAC,
		Prefixes: []PrefixInfo{
			{Prefix: netip.MustParsePrefix("2001:470:8:100::/64"), OnLink: true, AutonomousFlag: true,
				ValidLifetime: 86400 * time.Second, PreferredLifetime: 14400 * time.Second},
			{Prefix: netip.MustParsePrefix("fd42:6c61:6221::/64"), OnLink: true, AutonomousFlag: true,
				ValidLifetime: 86400 * time.Second, PreferredLifetime: 86400 * time.Second},
		},
		RDNSS: []RDNSS{{Lifetime: 1800 * time.Second, Servers: []netip.Addr{netip.MustParseAddr("2606:4700:4700::1111")}}},
	}
}

// normRA counts empty slices equal to nil ones, as a reused advert keeps
// its backing arrays.
func normRA(ra RouterAdvert) RouterAdvert {
	if len(ra.Prefixes) == 0 {
		ra.Prefixes = nil
	}
	if len(ra.RDNSS) == 0 {
		ra.RDNSS = nil
		return ra
	}
	rdnss := make([]RDNSS, len(ra.RDNSS))
	for i, r := range ra.RDNSS {
		if len(r.Servers) == 0 {
			r.Servers = nil
		}
		rdnss[i] = r
	}
	ra.RDNSS = rdnss
	return ra
}

// sameErr reports whether two decode results failed the same way.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// checkAppend holds an encoder to its oracle: appending behind a prefix
// must leave the prefix and then write exactly the oracle's body.
func checkAppend(t *testing.T, kind string, prefix, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, append(append([]byte(nil), prefix...), want...)) {
		t.Fatalf("%s AppendBody(%x) = %x, want the prefix then %x", kind, prefix, got, want)
	}
}

// checkValue holds one value-returning ND codec to its oracle on data:
// the same error, the same message, and a re-encode behind prefix that
// matches the oracle's bytes and decodes back to the message.
func checkValue[M comparable](t *testing.T, kind string, data, prefix []byte,
	parse func([]byte) (M, error), oracleParse func([]byte) (*M, error),
	appendBody func(M, []byte) []byte, oracleBody func(*M) []byte) {
	t.Helper()
	m, err := parse(data)
	want, werr := oracleParse(data)
	if !sameErr(err, werr) {
		t.Fatalf("%s error %v, oracle %v", kind, err, werr)
	}
	if err != nil {
		return
	}
	if m != *want {
		t.Fatalf("%s = %+v, oracle %+v", kind, m, *want)
	}
	body := appendBody(m, append([]byte(nil), prefix...))
	checkAppend(t, kind, prefix, body, oracleBody(&m))
	if again, err := parse(body[len(prefix):]); err != nil || again != m {
		t.Fatalf("%s re-decode = %+v (%v), want %+v", kind, again, err, m)
	}
}

// FuzzNDP holds the value-returning, buffer-reusing ND codec to the
// original one (the test-only oracle). Every input is decoded as each of
// the four messages: the decoders must agree with the oracle on the error
// and the decoded value, ParseRouterAdvertInto a dirty reused advert must
// equal a fresh decode, and every decoded message must re-encode to the
// oracle's bytes behind any prefix and decode back to itself.
func FuzzNDP(f *testing.F) {
	f.Add(oracleRABody(testRA()))
	f.Add(oracleRABody(&RouterAdvert{}))
	f.Add(oracleRSBody(&RouterSolicit{SourceLinkAddr: testMAC}))
	f.Add(oracleRSBody(&RouterSolicit{}))
	// A repeated link-layer option: the last one wins.
	f.Add(append(oracleRSBody(&RouterSolicit{SourceLinkAddr: testMAC}), OptSourceLinkAddr, 1, 9, 9, 9, 9, 9, 9))
	gua := netip.MustParseAddr("2001:470:8:100::1")
	f.Add(oracleNSBody(&NeighborSolicit{Target: gua, SourceLinkAddr: testMAC}))
	f.Add(oracleNSBody(&NeighborSolicit{Target: gua}))
	f.Add(oracleNABody(&NeighborAdvert{Router: true, Solicited: true, Override: true, Target: gua, TargetLinkAddr: testMAC}))
	f.Add([]byte{})
	f.Add(append(make([]byte, 12), OptRDNSS, 1, 0, 0, 0, 0, 0, 9))

	f.Fuzz(func(t *testing.T, data []byte) {
		prefix := data[:len(data)%5]

		want, werr := oracleParseRA(data)
		fresh := &RouterAdvert{}
		err := ParseRouterAdvertInto(fresh, data)
		if !sameErr(err, werr) {
			t.Fatalf("RA error %v, oracle %v", err, werr)
		}
		dirty := testRA()
		dirty.RDNSS = append(dirty.RDNSS, RDNSS{Servers: []netip.Addr{gua, gua, gua}})
		if derr := ParseRouterAdvertInto(dirty, data); !sameErr(derr, err) {
			t.Fatalf("RA into a reused advert: error %v, fresh %v", derr, err)
		}
		if err == nil {
			if !reflect.DeepEqual(normRA(*fresh), normRA(*want)) {
				t.Fatalf("RA = %+v, oracle %+v", *fresh, *want)
			}
			if !reflect.DeepEqual(normRA(*dirty), normRA(*fresh)) {
				t.Fatalf("RA into a reused advert = %+v, fresh %+v", *dirty, *fresh)
			}
			body := fresh.AppendBody(append([]byte(nil), prefix...))
			checkAppend(t, "RA", prefix, body, oracleRABody(fresh))
			again := &RouterAdvert{}
			if err := ParseRouterAdvertInto(again, body[len(prefix):]); err != nil || !reflect.DeepEqual(normRA(*again), normRA(*fresh)) {
				t.Fatalf("RA re-decode = %+v (%v), want %+v", *again, err, *fresh)
			}
		}

		checkValue(t, "RS", data, prefix, ParseRouterSolicit, oracleParseRS, RouterSolicit.AppendBody, oracleRSBody)
		checkValue(t, "NS", data, prefix, ParseNeighborSolicit, oracleParseNS, NeighborSolicit.AppendBody, oracleNSBody)
		checkValue(t, "NA", data, prefix, ParseNeighborAdvert, oracleParseNA, NeighborAdvert.AppendBody, oracleNABody)
	})
}

// TestRouterAdvertAllocs: encoding the router's advert into a warm buffer
// and decoding it into a reused RouterAdvert allocate nothing.
func TestRouterAdvertAllocs(t *testing.T) {
	ra := testRA()
	buf := make([]byte, 0, 256)
	var got RouterAdvert
	allocs := testing.AllocsPerRun(100, func() {
		buf = ra.AppendBody(buf[:0])
		if err := ParseRouterAdvertInto(&got, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("RA encode + decode into a reused advert: %v allocs, want 0", allocs)
	}
	if !reflect.DeepEqual(&got, ra) {
		t.Errorf("decoded %+v, want %+v", got, *ra)
	}
}

// TestNeighborMessageAllocs: the NS/NA/RS codecs return values and append
// into the caller's buffer, so a warm round trip allocates nothing.
func TestNeighborMessageAllocs(t *testing.T) {
	gua := netip.MustParseAddr("2001:470:8:100::1")
	buf := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		buf = NeighborSolicit{Target: gua, SourceLinkAddr: testMAC}.AppendBody(buf[:0])
		if _, err := ParseNeighborSolicit(buf); err != nil {
			t.Fatal(err)
		}
		buf = NeighborAdvert{Override: true, Target: gua, TargetLinkAddr: testMAC}.AppendBody(buf[:0])
		if _, err := ParseNeighborAdvert(buf); err != nil {
			t.Fatal(err)
		}
		buf = RouterSolicit{SourceLinkAddr: testMAC}.AppendBody(buf[:0])
		if _, err := ParseRouterSolicit(buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("NS/NA/RS round trips: %v allocs, want 0", allocs)
	}
}
