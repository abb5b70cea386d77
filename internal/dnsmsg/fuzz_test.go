package dnsmsg

import (
	"bytes"
	"fmt"
	"net/netip"
	"reflect"
	"testing"
)

// fuzzMessages are the message shapes the testbed puts on the wire: device
// queries, resolver replies (positive, CNAME-chained, NXDOMAIN with the
// zone SOA, HTTPS/SVCB with an ipv6hint), and a DNS-SD announcement as the
// mDNS package builds it.
func fuzzMessages() []*Message {
	v6 := netip.MustParseAddr("2606:4700:10::42")
	return []*Message{
		{ID: 7, RecursionDesired: true, Questions: []Question{{Name: "speaker-v6x12.vendor.example", Type: TypeAAAA}}},
		{ID: 8, RecursionDesired: true, Questions: []Question{{Name: "pool.ntp.example", Type: TypeA}}},
		{ID: 7, Response: true, RecursionDesired: true, RecursionAvailable: true,
			Questions: []Question{{Name: "cam.vendor.example", Type: TypeAAAA}},
			Answers: []Record{
				{Name: "cam.vendor.example", Type: TypeCNAME, TTL: 300, Target: "edge.cdn.example"},
				{Name: "edge.cdn.example", Type: TypeAAAA, TTL: 300, Addr: v6},
				{Name: "edge.cdn.example", Type: TypeA, TTL: 300, Addr: netip.MustParseAddr("198.18.0.9")},
			}},
		{ID: 9, Response: true, RecursionDesired: true, RecursionAvailable: true, RCode: RCodeNXDomain,
			Questions: []Question{{Name: "missing.tracker.example", Type: TypeAAAA}},
			Authority: []Record{{Name: "tracker.example", Type: TypeSOA, TTL: 900, Target: "ns1.tracker.example"}}},
		{ID: 10, Response: true, RecursionDesired: true, RecursionAvailable: true,
			Questions: []Question{{Name: "www.vendor.example", Type: TypeHTTPS}},
			Answers: []Record{
				{Name: "www.vendor.example", Type: TypeHTTPS, TTL: 300, Priority: 1, Target: ".", Addr: v6},
				{Name: "www.vendor.example", Type: TypeSVCB, TTL: 300, Priority: 2, Target: "svc.vendor.example"},
			}},
		{Response: true, Authoritative: true,
			Answers: []Record{
				{Name: "_matter._tcp.local", Type: TypePTR, TTL: 4500, Target: "plug._matter._tcp.local"},
				{Name: "plug._matter._tcp.local", Type: TypeSRV, TTL: 120, Port: 5540, Target: "plug.local"},
				{Name: "plug._matter._tcp.local", Type: TypeTXT, TTL: 4500, Text: []string{"VP=65521+32769", "CM=1"}},
			},
			Additional: []Record{{Name: "plug.local", Type: TypeAAAA, TTL: 120, Addr: netip.MustParseAddr("fd00::1")}}},
	}
}

// oracleUnpackSafe runs the oracle decoder, turning a panic into an
// error: the original SVCB/HTTPS decoder sliced past the rdata when the
// target name overran it, where the rewrite reports a truncated message.
func oracleUnpackSafe(data []byte) (m *Message, err error) {
	defer func() {
		if r := recover(); r != nil {
			m, err = nil, fmt.Errorf("oracle panic: %v", r)
		}
	}()
	return oracleUnpack(data)
}

// sameSections reports whether two decoded messages are equal, counting
// an empty section equal to a nil one (a reused Message keeps its
// backing arrays).
func sameSections(a, b *Message) bool {
	norm := func(m Message) Message {
		if len(m.Questions) == 0 {
			m.Questions = nil
		}
		if len(m.Answers) == 0 {
			m.Answers = nil
		}
		if len(m.Authority) == 0 {
			m.Authority = nil
		}
		if len(m.Additional) == 0 {
			m.Additional = nil
		}
		return m
	}
	return reflect.DeepEqual(norm(*a), norm(*b))
}

// FuzzDNSMessage holds the buffer-reusing codec to the original one (the
// test-only oracle): Unpack must agree with the oracle on whether the
// bytes decode and on the decoded message; UnpackInto a dirty, reused
// Message must equal a fresh Unpack; and every decoded message the
// oracle can pack must AppendPack to the oracle's bytes behind any
// prefix, so compression pointers stay relative to the message start.
func FuzzDNSMessage(f *testing.F) {
	for _, m := range fuzzMessages() {
		wire, err := oraclePack(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
	}
	f.Add([]byte{})
	f.Add(make([]byte, 12))

	// The dirty message starts out holding the biggest seed, TXT strings
	// and all, so every section has stale records to overwrite.
	seeds := fuzzMessages()
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Unpack(data)
		want, werr := oracleUnpackSafe(data)
		if (err == nil) != (werr == nil) {
			t.Fatalf("Unpack error %v, oracle error %v", err, werr)
		}
		dirty := *seeds[5]
		dirty.Questions = []Question{{Name: "stale.example", Type: TypeA}}
		dirty.Answers = append([]Record(nil), seeds[5].Answers...)
		if ierr := UnpackInto(&dirty, data); (ierr == nil) != (err == nil) {
			t.Fatalf("UnpackInto error %v, Unpack error %v", ierr, err)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Unpack = %+v, oracle %+v", got, want)
		}
		if !sameSections(&dirty, got) {
			t.Fatalf("UnpackInto a reused message = %+v, fresh Unpack %+v", dirty, *got)
		}

		owire, perr := oraclePack(got)
		prefix := data[:len(data)%5]
		out, aerr := got.AppendPack(append([]byte(nil), prefix...))
		if (aerr == nil) != (perr == nil) {
			t.Fatalf("AppendPack error %v, oracle Pack error %v", aerr, perr)
		}
		if aerr != nil {
			if !bytes.Equal(out, prefix) {
				t.Fatalf("failed AppendPack left %x, want the prefix %x", out, prefix)
			}
			return
		}
		if !bytes.Equal(out, append(append([]byte(nil), prefix...), owire...)) {
			t.Fatalf("AppendPack(%x) = %x, want the prefix then %x", prefix, out, owire)
		}
	})
}

// TestAppendPackAllocs: packing a one-question query into a warm buffer
// allocates nothing — the compression table lives on the stack.
func TestAppendPackAllocs(t *testing.T) {
	q := &Message{ID: 7, RecursionDesired: true, Questions: []Question{{Name: "speaker-v6x12.vendor.example", Type: TypeAAAA}}}
	buf := make([]byte, 0, 512)
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if buf, err = q.AppendPack(buf[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendPack of a one-question query: %v allocs, want 0", allocs)
	}
}

// TestUnpackIntoAllocs: decoding an A+AAAA reply into a reused Message
// allocates one string per distinct name and nothing else.
func TestUnpackIntoAllocs(t *testing.T) {
	r := &Message{ID: 7, Response: true, RecursionDesired: true, RecursionAvailable: true,
		Questions: []Question{{Name: "cam.vendor.example", Type: TypeA}},
		Answers: []Record{
			{Name: "cam.vendor.example", Type: TypeCNAME, TTL: 300, Target: "edge.cdn.example"},
			{Name: "edge.cdn.example", Type: TypeA, TTL: 300, Addr: netip.MustParseAddr("198.18.0.9")},
			{Name: "edge.cdn.example", Type: TypeAAAA, TTL: 300, Addr: netip.MustParseAddr("2606:4700:10::42")},
		}}
	wire, err := r.Pack()
	if err != nil {
		t.Fatal(err)
	}
	var m Message
	allocs := testing.AllocsPerRun(100, func() {
		if err := UnpackInto(&m, wire); err != nil {
			t.Fatal(err)
		}
	})
	names := map[string]bool{}
	for _, q := range m.Questions {
		names[q.Name] = true
	}
	for _, rr := range m.Answers {
		names[rr.Name] = true
		if rr.Target != "" {
			names[rr.Target] = true
		}
	}
	if want := float64(len(names)); allocs != want {
		t.Errorf("UnpackInto an A+AAAA reply: %v allocs, want %v (one per distinct name)", allocs, want)
	}
	if !sameSections(&m, r) {
		t.Errorf("UnpackInto = %+v, want %+v", m, *r)
	}
}
