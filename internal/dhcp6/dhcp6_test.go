package dhcp6

import (
	"encoding/binary"
	"net/netip"
	"reflect"
	"testing"

	"v6lab/internal/packet"
)

var mac = packet.MAC{0x02, 0x11, 0x22, 0x33, 0x44, 0x55}

func TestInfoRequestRoundTrip(t *testing.T) {
	m := &Message{
		Type:             InfoRequest,
		TxID:             0xabcdef,
		ClientID:         DUIDFromMAC(mac),
		RequestedOptions: []uint16{OptDNSServers},
	}
	wire, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != InfoRequest || got.TxID != 0xabcdef {
		t.Errorf("header: %+v", got)
	}
	if !reflect.DeepEqual(got.ClientID, m.ClientID) {
		t.Errorf("client id: %x", got.ClientID)
	}
	if !got.WantsDNS() {
		t.Error("WantsDNS false")
	}
}

// testSolicit is a client's SOLICIT asking for an address and DNS servers.
func testSolicit() *Message {
	return &Message{
		Type: Solicit, TxID: 1, ClientID: DUIDFromMAC(mac),
		RequestedOptions: []uint16{OptDNSServers},
		IANA:             &IANA{IAID: 42},
	}
}

// testReply is the server's REPLY binding one address with one DNS server.
func testReply() *Message {
	return &Message{
		Type: Reply, TxID: 1,
		ClientID: DUIDFromMAC(mac),
		ServerID: DUIDFromMAC(packet.MAC{0x02, 0xff, 0, 0, 0, 1}),
		IANA: &IANA{IAID: 42, Addrs: []IAAddr{{
			Addr: netip.MustParseAddr("2001:470:8:100::1001"), PreferredLifetime: 3600, ValidLifetime: 7200,
		}}},
		DNS: []netip.Addr{netip.MustParseAddr("2001:4860:4860::8888")},
	}
}

func TestStatefulExchangeRoundTrip(t *testing.T) {
	wire, err := testSolicit().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.IANA == nil || got.IANA.IAID != 42 || len(got.IANA.Addrs) != 0 {
		t.Errorf("solicit IA_NA: %+v", got.IANA)
	}

	wire, err = testReply().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err = Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.IANA == nil || len(got.IANA.Addrs) != 1 {
		t.Fatalf("reply IA_NA: %+v", got.IANA)
	}
	a := got.IANA.Addrs[0]
	if a.Addr != netip.MustParseAddr("2001:470:8:100::1001") || a.ValidLifetime != 7200 {
		t.Errorf("IAAddr: %+v", a)
	}
	if len(got.DNS) != 1 || got.DNS[0] != netip.MustParseAddr("2001:4860:4860::8888") {
		t.Errorf("DNS: %v", got.DNS)
	}
}

func TestDUIDFromMAC(t *testing.T) {
	d := DUIDFromMAC(mac)
	if len(d) != 10 || d[1] != 3 || d[3] != 1 {
		t.Errorf("DUID = %x", d)
	}
}

func TestMarshalRejectsIPv4Addresses(t *testing.T) {
	m := &Message{Type: Reply, DNS: []netip.Addr{netip.MustParseAddr("8.8.8.8")}}
	if _, err := m.Marshal(); err == nil {
		t.Error("want error for IPv4 DNS over DHCPv6")
	}
	m = &Message{Type: Reply, IANA: &IANA{Addrs: []IAAddr{{Addr: netip.MustParseAddr("1.2.3.4")}}}}
	if _, err := m.Marshal(); err == nil {
		t.Error("want error for IPv4 IA address")
	}
}

// TestTruncatedRejected cuts marshalled messages at every length: a cut
// must parse exactly when it ends the 4-byte header or a top-level option,
// and fail anywhere else, including inside the nested IA_NA.
func TestTruncatedRejected(t *testing.T) {
	for _, m := range []*Message{testSolicit(), testReply()} {
		wire, err := m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		boundary := map[int]bool{4: true}
		for off := 4; off < len(wire); {
			off += 4 + int(binary.BigEndian.Uint16(wire[off+2:off+4]))
			boundary[off] = true
		}
		for cut := 0; cut <= len(wire); cut++ {
			_, err := Unmarshal(wire[:cut])
			if got, want := err != nil, !boundary[cut]; got != want {
				t.Errorf("%s cut at %d of %d: err = %v, want error %v", TypeName(m.Type), cut, len(wire), err, want)
			}
		}
	}
}

func TestTypeName(t *testing.T) {
	if TypeName(Solicit) != "SOLICIT" || TypeName(InfoRequest) != "INFORMATION-REQUEST" || TypeName(99) != "TYPE99" {
		t.Error("TypeName wrong")
	}
}
