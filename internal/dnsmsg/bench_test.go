package dnsmsg

import (
	"net/netip"
	"testing"
)

// BenchmarkPackUnpack measures the DNS codec round trip for a typical
// AAAA answer the way the packet path runs it: AppendPack into a reused
// wire buffer, UnpackInto a reused Message. The one allocation per op is
// the decoded name.
func BenchmarkPackUnpack(b *testing.B) {
	name := "speaker-v6x12.vendor.example"
	r := &Message{ID: 7, Response: true, RecursionDesired: true, RecursionAvailable: true,
		Questions: []Question{{Name: name, Type: TypeAAAA}},
		Answers: []Record{{Name: name, Type: TypeAAAA, TTL: 300,
			Addr: netip.MustParseAddr("2606:4700:10::42")}}}
	var wire []byte
	var m Message
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if wire, err = r.AppendPack(wire[:0]); err != nil {
			b.Fatal(err)
		}
		if err := UnpackInto(&m, wire); err != nil {
			b.Fatal(err)
		}
	}
}
