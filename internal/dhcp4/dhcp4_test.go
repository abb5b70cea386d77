package dhcp4

import (
	"net/netip"
	"reflect"
	"testing"

	"v6lab/internal/packet"
)

// unmarshal decodes into a fresh Message.
func unmarshal(data []byte) (*Message, error) {
	m := &Message{}
	return m, UnmarshalInto(m, data)
}

func TestDiscoverOfferRoundTrip(t *testing.T) {
	mac := packet.MAC{0x02, 0x11, 0x22, 0x33, 0x44, 0x55}
	disc := &Message{Op: 1, XID: 0xdeadbeef, ClientMAC: mac, Type: Discover}
	wire, err := disc.AppendMarshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != Discover || got.XID != 0xdeadbeef || got.ClientMAC != mac {
		t.Errorf("discover: %+v", got)
	}

	offer := &Message{
		Op: 2, XID: disc.XID, ClientMAC: mac, Type: Offer,
		YourIP:     netip.MustParseAddr("192.168.1.23"),
		ServerIP:   netip.MustParseAddr("192.168.1.1"),
		ServerID:   netip.MustParseAddr("192.168.1.1"),
		SubnetMask: netip.MustParseAddr("255.255.255.0"),
		Router:     netip.MustParseAddr("192.168.1.1"),
		DNS:        []netip.Addr{netip.MustParseAddr("8.8.8.8"), netip.MustParseAddr("8.8.4.4")},
		LeaseSecs:  3600,
	}
	wire, err = offer.AppendMarshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err = unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, offer) {
		t.Errorf("offer round trip:\n got %+v\nwant %+v", got, offer)
	}
}

func TestRequestCarriesRequestedIP(t *testing.T) {
	req := &Message{
		Op: 1, XID: 7, Type: Request,
		Requested: netip.MustParseAddr("192.168.1.23"),
		ServerID:  netip.MustParseAddr("192.168.1.1"),
	}
	wire, err := req.AppendMarshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Requested != req.Requested || got.ServerID != req.ServerID {
		t.Errorf("request: %+v", got)
	}
}

func TestRejectsMissingCookieAndType(t *testing.T) {
	if _, err := unmarshal(make([]byte, fixedLen)); err == nil {
		t.Error("want error for missing cookie")
	}
	m := &Message{Op: 1}
	if _, err := m.AppendMarshal(nil); err == nil {
		t.Error("want error for unset type")
	}
	if _, err := unmarshal(make([]byte, 10)); err == nil {
		t.Error("want error for truncated message")
	}
}

func TestMarshalRejectsIPv6DNS(t *testing.T) {
	m := &Message{Op: 2, Type: ACK, DNS: []netip.Addr{netip.MustParseAddr("::1")}}
	if _, err := m.AppendMarshal(nil); err == nil {
		t.Error("want error for IPv6 DNS in DHCPv4")
	}
}

func TestPadOptionSkipped(t *testing.T) {
	m := &Message{Op: 1, XID: 1, Type: Discover}
	wire, err := m.AppendMarshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Insert pad bytes before END.
	wire = append(wire[:len(wire)-1], 0, 0, 0, OptEnd)
	if _, err := unmarshal(wire); err != nil {
		t.Fatal(err)
	}
}
