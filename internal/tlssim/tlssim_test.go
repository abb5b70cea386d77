package tlssim

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestClientHelloSNIRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, host := range []string{"api.nest.example", "a2.tuyaus.com", "x", strings.Repeat("a", 63) + ".example"} {
		rec := AppendClientHello(nil, host, rng)
		got, err := SNI(rec)
		if err != nil {
			t.Fatalf("%s: %v", host, err)
		}
		if string(got) != host {
			t.Errorf("SNI = %q, want %q", got, host)
		}
	}
}

func TestClientHelloNilRNG(t *testing.T) {
	rec := AppendClientHello(nil, "example.com", nil)
	got, err := SNI(rec)
	if err != nil || string(got) != "example.com" {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestSNIRejectsNonHello(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		[]byte("GET / HTTP/1.1\r\n"),
		{recordTypeHandshake, 3, 3, 0, 1, 99}, // handshake but not client hello
	}
	for i, c := range cases {
		if _, err := SNI(c); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestSNITruncationsRejectedOrEmpty(t *testing.T) {
	rec := AppendClientHello(nil, "truncate.example", nil)
	for cut := 1; cut < len(rec); cut++ {
		name, err := SNI(rec[:cut])
		if err == nil && string(name) == "truncate.example" {
			t.Fatalf("full SNI recovered from %d-byte truncation", cut)
		}
	}
}

// Property: round trip holds for arbitrary hostnames of reasonable length.
func TestQuickSNIRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(raw string) bool {
		host := strings.Map(func(r rune) rune {
			if r >= 'a' && r <= 'z' || r == '.' || r == '-' {
				return r
			}
			return -1
		}, strings.ToLower(raw))
		if host == "" || len(host) > 200 {
			return true
		}
		got, err := SNI(AppendClientHello(nil, host, rng))
		return err == nil && string(got) == host
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestAppendClientHelloMatchesOracle: appending behind any prefix writes
// exactly the original encoder's record, with and without a client
// random, and a warm buffer takes it without allocating.
func TestAppendClientHelloMatchesOracle(t *testing.T) {
	for _, host := range []string{"", "x", "api.nest.example", strings.Repeat("a", 63) + ".example"} {
		for _, seed := range []int64{0, 7} {
			var rng, orng *rand.Rand
			if seed != 0 {
				rng, orng = rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			}
			prefix := []byte{0xde, 0xad}
			got := AppendClientHello(append([]byte(nil), prefix...), host, rng)
			want := append(append([]byte(nil), prefix...), oracleClientHello(host, orng)...)
			if !bytes.Equal(got, want) {
				t.Errorf("%q seed %d: got %x, want %x", host, seed, got, want)
			}
		}
	}
	buf := make([]byte, 0, 256)
	if allocs := testing.AllocsPerRun(100, func() { buf = AppendClientHello(buf[:0], "api.nest.example", nil) }); allocs != 0 {
		t.Errorf("AppendClientHello into a warm buffer: %v allocs, want 0", allocs)
	}
}
