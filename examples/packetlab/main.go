// Packetlab tours the protocol substrates directly: craft a router
// advertisement, SLAAC an address from it, exchange a DNS query with the
// simulated resolver, and round-trip everything through a pcap file —
// the building blocks the study's testbed is made of.
package main

import (
	"fmt"
	"log"
	"net/netip"
	"os"
	"time"

	"v6lab/internal/addr"
	"v6lab/internal/cloud"
	"v6lab/internal/dnsmsg"
	"v6lab/internal/ndp"
	"v6lab/internal/packet"
	"v6lab/internal/pcapio"
)

func main() {
	// 1. Craft a router advertisement like the testbed router's.
	ra := &ndp.RouterAdvert{
		HopLimit:       64,
		OtherConfig:    true,
		RouterLifetime: 1800 * time.Second,
		Prefixes: []ndp.PrefixInfo{{
			Prefix: netip.MustParsePrefix("2001:db8:cafe::/64"),
			OnLink: true, AutonomousFlag: true,
			ValidLifetime: 86400 * time.Second, PreferredLifetime: 14400 * time.Second,
		}},
		RDNSS: []ndp.RDNSS{{Lifetime: 1800 * time.Second, Servers: []netip.Addr{cloud.DNSv6}}},
	}
	routerLLA := netip.MustParseAddr("fe80::1")
	frame, err := packet.Serialize(
		&packet.Ethernet{Dst: addr.MulticastMAC(addr.AllNodesMulticast), Src: packet.MAC{2, 0, 0, 0, 0, 1}, Type: packet.EtherTypeIPv6},
		&packet.IPv6{NextHeader: packet.IPProtocolICMPv6, HopLimit: 255, Src: routerLLA, Dst: addr.AllNodesMulticast},
		&packet.ICMPv6{Type: packet.ICMPv6TypeRouterAdvert, Body: ra.AppendBody(nil), Src: routerLLA, Dst: addr.AllNodesMulticast},
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("RA frame: %d bytes on the wire\n", len(frame))

	// 2. A device parses it and SLAACs two addresses: the trackable EUI-64
	//    form and an RFC 8981 privacy address.
	parsed := packet.Parse(frame)
	var got ndp.RouterAdvert
	if err := ndp.ParseRouterAdvertInto(&got, parsed.ICMPv6.Body); err != nil {
		log.Fatal(err)
	}
	mac := packet.MAC{0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde}
	eui := addr.EUI64Addr(got.Prefixes[0].Prefix, mac)
	fmt.Printf("SLAAC EUI-64 address:  %v (embeds MAC %v: %v)\n", eui, mac, addr.EUI64MatchesMAC(eui, mac))

	// 3. Resolve a name against the simulated resolver.
	cl := cloud.New()
	cl.AddDomain("api.vendor.example", cloud.PartyFirst, true, false)
	answers, rcode := cl.Resolve("api.vendor.example", dnsmsg.TypeAAAA)
	fmt.Printf("AAAA api.vendor.example -> %v (%v)\n", answers[0].Addr, rcode)

	// 4. Round-trip the frame through a pcap file.
	path := "ra.pcap"
	if err := pcapio.WriteFile(path, []pcapio.Record{{Time: time.Now(), Data: frame}}); err != nil {
		log.Fatal(err)
	}
	recs, err := pcapio.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pcap round trip: %d record(s), %d bytes (try: tcpdump -r %s)\n", len(recs), len(recs[0].Data), path)
	os.Remove(path)
}
