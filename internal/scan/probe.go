package scan

// This file holds the WAN-side probe primitives the one WAN probe loop,
// experiment's Home.Probe, is built from: building raw TCP SYN probes for
// injection at the router's WAN port, and collecting the SYN-ACKs that
// make it back out to the scanning vantage.

import (
	"net/netip"

	"v6lab/internal/packet"
)

// SYNv6 builds raw IPv6 TCP SYN probes. It keeps the layer structs and the
// buffer every probe is serialized from, so a probe loop allocates nothing
// per probe.
type SYNv6 struct {
	buf packet.Buffer
	ip  packet.IPv6
	tcp packet.TCP
}

// Build serializes one probe from the scanning vantage src to dst,
// suitable for router.InjectWANv6, which copies it into the switch's arena
// before it returns. The result is valid until the next Build.
func (s *SYNv6) Build(src, dst netip.Addr, sport, dport uint16, seq uint32) ([]byte, error) {
	s.ip = packet.IPv6{NextHeader: packet.IPProtocolTCP, HopLimit: 64, Src: src, Dst: dst}
	s.tcp = packet.TCP{SrcPort: sport, DstPort: dport, Seq: seq, Flags: packet.TCPFlagSYN, Src: src, Dst: dst}
	return packet.SerializeInto(&s.buf, &s.ip, &s.tcp)
}

// Collector plays the scanner's WAN endpoint. Wire Tap as the router's
// WANv6Tap: it consumes every packet addressed to the vantage (scanner
// traffic never reaches the simulated cloud) and reports SYN-ACKs — the
// open-port signal — through OnSYNACK.
type Collector struct {
	Vantage netip.Addr
	// OnSYNACK receives the responding device address and the service
	// port that answered.
	OnSYNACK func(src netip.Addr, port uint16)

	dec packet.Decoder
}

// Tap inspects one raw WAN-bound IPv6 packet, reporting true when it was
// addressed to the vantage and therefore consumed.
func (c *Collector) Tap(raw []byte) bool {
	rp := c.dec.ParseIP(raw)
	if rp.Err != nil || rp.IPv6 == nil || rp.IPv6.Dst != c.Vantage {
		return false
	}
	if rp.TCP != nil && rp.TCP.HasFlag(packet.TCPFlagSYN|packet.TCPFlagACK) && c.OnSYNACK != nil {
		c.OnSYNACK(rp.IPv6.Src, rp.TCP.SrcPort)
	}
	return true
}
