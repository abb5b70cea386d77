package dnsmsg

import (
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// query is a standard recursive query for one question.
func query(id uint16, name string, qtype Type) *Message {
	return &Message{ID: id, RecursionDesired: true, Questions: []Question{{Name: name, Type: qtype}}}
}

// reply is a response skeleton mirroring q's ID and question.
func reply(q *Message, rcode RCode) *Message {
	return &Message{ID: q.ID, Response: true, RecursionDesired: q.RecursionDesired,
		RecursionAvailable: true, RCode: rcode, Questions: append([]Question(nil), q.Questions...)}
}

func TestQueryRoundTrip(t *testing.T) {
	q := query(0x1234, "api.nest.example", TypeAAAA)
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 0x1234 || got.Response || !got.RecursionDesired {
		t.Errorf("header: %+v", got)
	}
	if len(got.Questions) != 1 || got.Questions[0].Name != "api.nest.example" || got.Questions[0].Type != TypeAAAA {
		t.Errorf("questions: %+v", got.Questions)
	}
}

func TestResponseRoundTripAllTypes(t *testing.T) {
	q := query(7, "www.example.com", TypeHTTPS)
	r := reply(q, RCodeSuccess)
	r.Authoritative = true
	r.Answers = []Record{
		{Name: "www.example.com", Type: TypeCNAME, TTL: 300, Target: "cdn.example.net"},
		{Name: "cdn.example.net", Type: TypeA, TTL: 60, Addr: netip.MustParseAddr("93.184.216.34")},
		{Name: "cdn.example.net", Type: TypeAAAA, TTL: 60, Addr: netip.MustParseAddr("2606:2800:220:1::1")},
		{Name: "www.example.com", Type: TypeHTTPS, TTL: 60, Priority: 1, Target: "."},
		{Name: "www.example.com", Type: TypeSVCB, TTL: 60, Priority: 2, Target: "svc.example.com"},
		{Name: "txt.example.com", Type: TypeTXT, TTL: 60, Text: []string{"v=spf1", "hello world"}},
		{Name: "4.3.2.1.in-addr.arpa", Type: TypePTR, TTL: 60, Target: "host.example.com"},
	}
	r.Authority = []Record{{Name: "example.com", Type: TypeSOA, TTL: 900, Target: "ns1.example.com"}}
	wire, err := r.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Response || !got.Authoritative || got.RCode != RCodeSuccess {
		t.Errorf("flags: %+v", got)
	}
	if len(got.Answers) != 7 {
		t.Fatalf("answers: %d", len(got.Answers))
	}
	if got.Answers[0].Target != "cdn.example.net" {
		t.Errorf("cname target %q", got.Answers[0].Target)
	}
	if got.Answers[1].Addr != netip.MustParseAddr("93.184.216.34") {
		t.Errorf("a addr %v", got.Answers[1].Addr)
	}
	if got.Answers[2].Addr != netip.MustParseAddr("2606:2800:220:1::1") {
		t.Errorf("aaaa addr %v", got.Answers[2].Addr)
	}
	if got.Answers[3].Priority != 1 || got.Answers[3].Target != "." {
		t.Errorf("https rr: %+v", got.Answers[3])
	}
	if got.Answers[4].Priority != 2 || got.Answers[4].Target != "svc.example.com" {
		t.Errorf("svcb rr: %+v", got.Answers[4])
	}
	if !reflect.DeepEqual(got.Answers[5].Text, []string{"v=spf1", "hello world"}) {
		t.Errorf("txt: %+v", got.Answers[5].Text)
	}
	if got.Answers[6].Target != "host.example.com" {
		t.Errorf("ptr: %+v", got.Answers[6])
	}
	if len(got.Authority) != 1 || got.Authority[0].Target != "ns1.example.com" {
		t.Errorf("soa: %+v", got.Authority)
	}
}

func TestNXDomainReply(t *testing.T) {
	q := query(9, "missing.example", TypeAAAA)
	r := reply(q, RCodeNXDomain)
	r.Authority = []Record{{Name: "example", Type: TypeSOA, TTL: 300, Target: "ns.example"}}
	wire, err := r.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.RCode != RCodeNXDomain || len(got.Answers) != 0 || len(got.Authority) != 1 {
		t.Errorf("nxdomain reply: %+v", got)
	}
	if got.RCode.String() != "NXDOMAIN" {
		t.Errorf("rcode string %q", got.RCode)
	}
}

func TestNameCompressionPointers(t *testing.T) {
	// Hand-build a message whose answer name is a pointer to the question
	// name, as real resolvers emit.
	q := query(1, "a.example.com", TypeA)
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	// Append one answer: pointer to offset 12 (question name), type A.
	ans := []byte{0xc0, 12, 0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 1, 2, 3, 4}
	wire = append(wire, ans...)
	wire[7] = 1 // ANCOUNT = 1
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Answers) != 1 || got.Answers[0].Name != "a.example.com" {
		t.Fatalf("answers: %+v", got.Answers)
	}
	if got.Answers[0].Addr != netip.MustParseAddr("1.2.3.4") {
		t.Errorf("addr %v", got.Answers[0].Addr)
	}
}

func TestPointerLoopRejected(t *testing.T) {
	wire := make([]byte, 12)
	wire[5] = 1 // QDCOUNT=1
	wire = append(wire, 0xc0, 12)
	if _, err := Unpack(wire); err == nil {
		t.Fatal("want error for self-pointing name")
	}
}

func TestBadNames(t *testing.T) {
	if _, err := (&Message{Questions: []Question{{Name: strings.Repeat("x", 64) + ".com", Type: TypeA}}}).Pack(); err == nil {
		t.Error("want error for 64-byte label")
	}
	if _, err := (&Message{Questions: []Question{{Name: "a..b", Type: TypeA}}}).Pack(); err == nil {
		t.Error("want error for empty label")
	}
}

func TestPackRejectsWrongAddressFamily(t *testing.T) {
	bad := []Record{
		{Name: "x.example", Type: TypeA, Addr: netip.MustParseAddr("::1")},
		{Name: "x.example", Type: TypeAAAA, Addr: netip.MustParseAddr("1.2.3.4")},
	}
	for _, rr := range bad {
		m := &Message{Answers: []Record{rr}}
		if _, err := m.Pack(); err == nil {
			t.Errorf("want error packing %v with %v", rr.Type, rr.Addr)
		}
	}
}

func TestTruncatedInputs(t *testing.T) {
	q := query(3, "trunc.example", TypeAAAA)
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(wire); cut++ {
		if _, err := Unpack(wire[:cut]); err == nil {
			t.Fatalf("no error at cut %d", cut)
		}
	}
}

func TestRootName(t *testing.T) {
	q := query(4, ".", TypeSOA)
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Questions[0].Name != "." {
		t.Errorf("root name = %q", got.Questions[0].Name)
	}
}

func TestCanonicalNameAndSLD(t *testing.T) {
	if CanonicalName("API.Amazon.COM.") != "api.amazon.com" {
		t.Error("CanonicalName")
	}
	for in, want := range map[string]string{
		"app-measurement.com":         "app-measurement.com",
		"a2.tuyaus.com":               "tuyaus.com",
		"unagi-na.amazon.com.":        "amazon.com",
		"localhost":                   "localhost",
		"deep.sub.tracker.segment.io": "segment.io",
	} {
		if got := SLD(in); got != want {
			t.Errorf("SLD(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestTypeStrings(t *testing.T) {
	if TypeAAAA.String() != "AAAA" || TypeA.String() != "A" || Type(999).String() != "TYPE999" {
		t.Error("type strings wrong")
	}
}

// Property: messages with arbitrary question names built from valid labels
// survive a pack/unpack cycle.
func TestQuickNameRoundTrip(t *testing.T) {
	f := func(labels []string, qtype uint8) bool {
		var parts []string
		for _, l := range labels {
			clean := strings.Map(func(r rune) rune {
				if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '-' {
					return r
				}
				return -1
			}, strings.ToLower(l))
			if len(clean) > 0 && len(clean) <= 63 {
				parts = append(parts, clean)
			}
			if len(parts) == 6 {
				break
			}
		}
		if len(parts) == 0 {
			return true
		}
		name := strings.Join(parts, ".")
		q := query(42, name, Type(qtype))
		wire, err := q.Pack()
		if err != nil {
			return false
		}
		got, err := Unpack(wire)
		if err != nil {
			return false
		}
		return got.Questions[0].Name == name && got.Questions[0].Type == Type(qtype)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCompressionOnEncode(t *testing.T) {
	// A response with repeated owner names must emit pointers and shrink.
	q := query(5, "very.long.subdomain.vendor.example", TypeAAAA)
	r := reply(q, RCodeSuccess)
	for i := 0; i < 4; i++ {
		r.Answers = append(r.Answers, Record{
			Name: "very.long.subdomain.vendor.example", Type: TypeAAAA, TTL: 60,
			Addr: netip.MustParseAddr("2606:4700:10::1"),
		})
	}
	wire, err := r.Pack()
	if err != nil {
		t.Fatal(err)
	}
	// Uncompressed, each owner name costs 36 bytes; compressed, repeats
	// cost 2. The whole message must reflect that.
	if len(wire) > 12+40+4+4*(2+10+16) {
		t.Errorf("message not compressed: %d bytes", len(wire))
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Answers) != 4 || got.Answers[3].Name != "very.long.subdomain.vendor.example" {
		t.Errorf("decode after compression: %+v", got.Answers)
	}
}

func TestSRVRoundTrip(t *testing.T) {
	m := &Message{Response: true, Answers: []Record{{
		Name: "dev._matter._tcp.local", Type: TypeSRV, TTL: 120,
		Priority: 0, Port: 5540, Target: "dev.local",
	}}}
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	rr := got.Answers[0]
	if rr.Port != 5540 || rr.Target != "dev.local" {
		t.Errorf("srv: %+v", rr)
	}
	if TypeSRV.String() != "SRV" {
		t.Error("type string")
	}
}

// TestSVCBTargetOverrunsRdata: an HTTPS record whose target name runs
// past its 3-byte rdata (a compression pointer there needs 2 bytes after
// the priority) is a truncated message, not a slice past the rdata.
func TestSVCBTargetOverrunsRdata(t *testing.T) {
	wire, err := query(1, "a.example", TypeHTTPS).Pack()
	if err != nil {
		t.Fatal(err)
	}
	wire[7] = 1 // ANCOUNT = 1
	// Owner: pointer to the question name; HTTPS, IN, TTL 60, RDLENGTH 3:
	// priority 1, then a pointer to the question name.
	wire = append(wire, 0xc0, 12, 0, 65, 0, 1, 0, 0, 0, 60, 0, 3, 0, 1, 0xc0, 12)
	if _, err := Unpack(wire); err == nil {
		t.Fatal("want an error for a target name overrunning the rdata")
	}
	if _, err := oracleUnpackSafe(wire); err == nil || !strings.HasPrefix(err.Error(), "oracle panic") {
		t.Fatalf("the original decoder returned %v instead of panicking; the case no longer tests the fix", err)
	}
}
