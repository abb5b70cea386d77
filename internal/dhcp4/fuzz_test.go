package dhcp4

import (
	"bytes"
	"net/netip"
	"reflect"
	"testing"

	"v6lab/internal/packet"
)

// testOffer is an OFFER as the testbed router sends it.
func testOffer() *Message {
	return &Message{
		Op: 2, XID: 0xdeadbeef, ClientMAC: packet.MAC{0x02, 0x11, 0x22, 0x33, 0x44, 0x55}, Type: Offer,
		YourIP:     netip.MustParseAddr("192.168.1.101"),
		ServerIP:   netip.MustParseAddr("192.168.1.1"),
		ServerID:   netip.MustParseAddr("192.168.1.1"),
		SubnetMask: netip.MustParseAddr("255.255.255.0"),
		Router:     netip.MustParseAddr("192.168.1.1"),
		DNS:        []netip.Addr{netip.MustParseAddr("198.18.0.53")},
		LeaseSecs:  3600,
	}
}

// normDNS counts an empty DNS list equal to a nil one, as a reused
// Message keeps its backing array.
func normDNS(m Message) Message {
	if len(m.DNS) == 0 {
		m.DNS = nil
	}
	return m
}

// sameErr reports whether two decode results failed the same way.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// FuzzDHCP4 holds the buffer-reusing codec to the original one (the
// test-only oracle): UnmarshalInto must agree with the oracle on the
// error and the decoded message, decoding into a dirty reused Message
// must equal a fresh decode, and every decoded message must AppendMarshal
// to the oracle's bytes behind any prefix and decode back to itself.
func FuzzDHCP4(f *testing.F) {
	for _, m := range []*Message{
		testOffer(),
		{Op: 1, XID: 7, ClientMAC: packet.MAC{2, 0, 0, 0, 0, 1}, Type: Discover},
		{Op: 1, XID: 7, Type: Request, Requested: netip.MustParseAddr("192.168.1.101"), ServerID: netip.MustParseAddr("192.168.1.1")},
	} {
		wire, err := oracleMarshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
	}
	// Options as other servers send them: a two-router list, a DNS list
	// with a ragged tail, pad bytes, and no END.
	wire, err := oracleMarshal(&Message{Op: 2, XID: 9, Type: ACK})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(wire[:len(wire)-1], OptRouter, 8, 192, 168, 1, 1, 192, 168, 1, 2, 0, OptDNSServers, 5, 8, 8, 8, 8, 9))
	f.Add([]byte{})
	f.Add(make([]byte, fixedLen))

	f.Fuzz(func(t *testing.T, data []byte) {
		want, werr := oracleUnmarshal(data)
		var got Message
		err := UnmarshalInto(&got, data)
		if !sameErr(err, werr) {
			t.Fatalf("UnmarshalInto error %v, oracle %v", err, werr)
		}
		dirty := testOffer()
		dirty.DNS = append(dirty.DNS, dirty.Router, dirty.ServerID)
		if derr := UnmarshalInto(dirty, data); !sameErr(derr, err) {
			t.Fatalf("UnmarshalInto a reused message: error %v, fresh %v", derr, err)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(normDNS(got), normDNS(*want)) {
			t.Fatalf("UnmarshalInto = %+v, oracle %+v", got, *want)
		}
		if !reflect.DeepEqual(normDNS(*dirty), normDNS(got)) {
			t.Fatalf("UnmarshalInto a reused message = %+v, fresh %+v", *dirty, got)
		}

		owire, oerr := oracleMarshal(&got)
		prefix := data[:len(data)%5]
		out, aerr := got.AppendMarshal(append([]byte(nil), prefix...))
		if !sameErr(aerr, oerr) {
			t.Fatalf("AppendMarshal error %v, oracle %v", aerr, oerr)
		}
		if aerr != nil {
			if !bytes.Equal(out, prefix) {
				t.Fatalf("failed AppendMarshal left %x, want the prefix %x", out, prefix)
			}
			return
		}
		if !bytes.Equal(out, append(append([]byte(nil), prefix...), owire...)) {
			t.Fatalf("AppendMarshal(%x) = %x, want the prefix then %x", prefix, out, owire)
		}
		var again Message
		if err := UnmarshalInto(&again, out[len(prefix):]); err != nil || !reflect.DeepEqual(normDNS(again), normDNS(got)) {
			t.Fatalf("re-decode = %+v (%v), want %+v", again, err, got)
		}
	})
}

// TestCodecAllocs: encoding the router's OFFER into a warm buffer and
// decoding it into a reused Message allocate nothing.
func TestCodecAllocs(t *testing.T) {
	offer := testOffer()
	buf := make([]byte, 0, 512)
	var got Message
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if buf, err = offer.AppendMarshal(buf[:0]); err != nil {
			t.Fatal(err)
		}
		if err := UnmarshalInto(&got, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("OFFER encode + decode into a reused message: %v allocs, want 0", allocs)
	}
	if !reflect.DeepEqual(&got, offer) {
		t.Errorf("decoded %+v, want %+v", got, *offer)
	}
}
