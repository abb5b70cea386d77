package device

import (
	"encoding/binary"
	"hash/fnv"
	"net/netip"

	"v6lab/internal/addr"
	"v6lab/internal/cloud"
	"v6lab/internal/dhcp4"
	"v6lab/internal/dhcp6"
	"v6lab/internal/dnsmsg"
	"v6lab/internal/mdns"
	"v6lab/internal/ndp"
	"v6lab/internal/netsim"
	"v6lab/internal/packet"
	"v6lab/internal/tlssim"
)

// Mode is the stack family configuration of an experiment.
type Mode int

// The three stack modes of Table 2.
const (
	ModeV4Only Mode = iota
	ModeV6Only
	ModeDual
)

// NetPrefixes carries the LAN prefixes the stack autoconfigures from; the
// experiment runner fills it from the router constants (avoiding an import
// cycle).
type NetPrefixes struct {
	GUA, ULA netip.Prefix
}

// Stack is the live network state machine of one device: it turns the
// static Profile + Plan into DHCPv4, NDP/SLAAC/DAD, DHCPv6, DNS, and
// TCP/TLS packets on the simulated LAN.
type Stack struct {
	Prof     *Profile
	Plan     *Plan
	MAC      packet.MAC
	prefixes NetPrefixes

	port  *netsim.Port
	clock *netsim.Clock
	// tx is the reusable serialization buffer every send path shares;
	// the switch copies frames into its arena at enqueue time, so the
	// buffer is free for the next frame as soon as Send returns.
	tx *packet.Buffer
	// dec parses inbound frames in place. Handlers only retain data that
	// is independent of the decoder (fresh copies, value types, or slices
	// into the switch arena), so reuse across frames is safe.
	dec packet.Decoder
	// The send path fills these reused layers and DNS buffers instead of
	// allocating per frame: transmit serializes synchronously and the
	// switch copies the frame, so they are free again once it returns.
	ethL     packet.Ethernet
	ip4L     packet.IPv4
	ip6L     packet.IPv6
	tcpL     packet.TCP
	udpL     packet.UDP
	rawL     packet.Raw
	segL     tlsSegment
	dnsQ     [1]dnsmsg.Question
	dnsWire  []byte
	dnsReply dnsmsg.Message

	mode   Mode
	expSeq int // 0-based index among the device's v6-enabled experiments
	v6Exps int // how many v6-enabled experiments the device will see

	// IPv4 state.
	v4Addr    netip.Addr
	dhcp4XID  uint32
	routerMAC packet.MAC

	// IPv6 state.
	llas, guas, ulas []netip.Addr
	tentative        map[netip.Addr]bool
	statefulAddr     netip.Addr
	raSeen           *ndp.RouterAdvert
	dnsV6            netip.Addr
	dhcp6ServerID    dhcp6.DUID

	// Workload state.
	pendingDNS map[uint16]pendingQuery
	nextDNSID  uint16
	nextPort   uint16
	conns      map[connKey]*conn
	// connOrder preserves creation order so retry passes under
	// impairment iterate deterministically (map order would not).
	connOrder  []connKey
	contacted  map[string]map[bool]bool // name -> family(v6?) -> contacted
	essOK      map[string]bool
	v6ByteEach int
	v4ByteEach int
	// dhcp6Pending tracks an in-flight DHCPv6 transaction (for retry
	// under impairment); retransmits counts retry sends this run.
	dhcp6Pending bool
	retransmits  int

	// asleep gates the whole stack off the wire: a sleeping device neither
	// receives nor reacts (timeline sleep/wake churn). Like dhcp4XID, the
	// lifetime counters below survive Reset so long-horizon engines can
	// detect lease-renewal outcomes as deltas across power cycles.
	asleep       bool
	dhcp4Acks    uint64
	dhcp6Replies uint64
}

type pendingQuery struct {
	specIdx int
	qtype   dnsmsg.Type
	// overV6/viaEUI64 record the transport so a lost query can be
	// retransmitted identically; attempts bounds the retries.
	overV6   bool
	viaEUI64 bool
	attempts int
}

type connKey struct {
	dst   netip.Addr
	sport uint16
}

type conn struct {
	specIdx int
	name    string
	src     netip.Addr
	dst     netip.Addr
	dport   uint16
	bytes   int
	seq     uint32
	state   int // 0 syn-sent, 1 data-sent, 2 fin-sent, 3 done
	// needSNI forces a TLS hello even on tiny flows: vendor-configured
	// literal endpoints are only attributable through it.
	needSNI bool
	// hello and payloadLen describe the application payload — the TLS
	// hello (nil when a tiny flow skips it) followed by 0x17 fill up to
	// payloadLen bytes — without materialising it. With its starting
	// sequence number and peer ACK, that is enough to (re)transmit the
	// flow: first send, resegmented after a Packet-Too-Big, or whole
	// after loss.
	hello        []byte
	payloadLen   int
	payloadStart uint32
	lastAck      uint32
	// pmtu is the path MTU learned from ICMPv6 Packet-Too-Big (0 = none).
	pmtu int
	// synRetries / dataRetries bound the loss-recovery retransmits.
	synRetries, dataRetries int
}

// segLimit returns the largest TCP payload one segment may carry: the
// 16-bit-IP-length bound, tightened by any PMTU learned from a
// Packet-Too-Big (40 bytes IPv6 header + 20 bytes TCP header).
func (c *conn) segLimit() int {
	const maxSeg = 32000
	if c.pmtu > 0 {
		if m := c.pmtu - 60; m > 0 && m < maxSeg {
			return m
		}
	}
	return maxSeg
}

// tlsSegment is the window [off, end) of a connection's application
// payload: the TLS hello bytes, then 0x17 application-data fill. It
// serializes straight into the stack's tx buffer, so a bulk flow never
// materialises its payload. The zero value is an empty payload.
type tlsSegment struct {
	hello    []byte
	off, end int
}

// LayerType implements packet.Layer.
func (*tlsSegment) LayerType() packet.LayerType { return packet.LayerTypePayload }

// SerializeTo implements packet.SerializableLayer.
func (sg *tlsSegment) SerializeTo(b *packet.Buffer) error {
	region := b.Prepend(sg.end - sg.off)
	n := 0
	if sg.off < len(sg.hello) {
		n = copy(region, sg.hello[sg.off:min(sg.end, len(sg.hello))])
	}
	fill := region[n:]
	if len(fill) > 0 {
		// Doubling copies fill at memmove speed.
		fill[0] = 0x17
		for k := 1; k < len(fill); k *= 2 {
			copy(fill[k:], fill[:k])
		}
	}
	return nil
}

// NewStack builds a device stack; idx gives the device a unique MAC with a
// manufacturer-derived OUI.
func NewStack(p *Profile, pl *Plan, idx int, prefixes NetPrefixes) *Stack {
	return &Stack{
		Prof:     p,
		Plan:     pl,
		MAC:      macFor(p, idx),
		prefixes: prefixes,
		v6Exps:   5,
		tx:       packet.NewBuffer(128),
		// Sized for any query and any cloud reply, like the maps in Reset.
		dnsWire: make([]byte, 0, 512),
		dnsReply: dnsmsg.Message{
			Questions: make([]dnsmsg.Question, 0, 1),
			Answers:   make([]dnsmsg.Record, 0, 1),
			Authority: make([]dnsmsg.Record, 0, 1),
		},
	}
}

// MACFor returns the MAC NewStack(p, _, idx, _) will assign, so world
// construction can index devices by address without building stacks.
func MACFor(p *Profile, idx int) packet.MAC { return macFor(p, idx) }

// macFor derives a stable unicast, universally-administered MAC whose OUI
// encodes the manufacturer (the paper notes the OUI itself leaks vendor
// identity, §5.4.1).
func macFor(p *Profile, idx int) packet.MAC {
	h := fnv.New32a()
	h.Write([]byte(p.Manufacturer))
	v := h.Sum32()
	return packet.MAC{byte(v>>16) &^ 0x03, byte(v >> 8), byte(v), 0x10, 0x20, byte(idx)}
}

// Attach connects the stack to the LAN.
func (s *Stack) Attach(n *netsim.Network) {
	s.clock = n.Clock
	s.port = n.Attach(s, s.MAC)
}

// hashIID derives a deterministic randomized interface identifier from the
// device identity and a salt, shaped like an RFC 8981 temporary IID.
func (s *Stack) hashIID(kind string, salt int) [8]byte {
	h := fnv.New64a()
	h.Write([]byte(s.Prof.Name))
	h.Write([]byte(kind))
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(salt))
	h.Write(b[:])
	var iid [8]byte
	binary.BigEndian.PutUint64(iid[:], h.Sum64())
	iid[0] &^= 0x02
	if iid[3] == 0xff && iid[4] == 0xfe {
		iid[4] = 0xfd
	}
	var zero [8]byte
	if iid == zero {
		iid[7] = 1
	}
	return iid
}

// Reset prepares the stack for a new experiment. expSeq counts v6-enabled
// experiments so far (for address-rotation scheduling).
func (s *Stack) Reset(mode Mode, expSeq int) {
	s.mode = mode
	s.expSeq = expSeq
	s.v4Addr = netip.Addr{}
	s.llas, s.guas, s.ulas = s.llas[:0], s.guas[:0], s.ulas[:0]
	s.statefulAddr = netip.Addr{}
	s.raSeen = nil
	s.dnsV6 = netip.Addr{}
	s.dhcp6ServerID = nil
	// Maps are cleared in place rather than reallocated: a stack that is
	// pooled across experiments (and across homes, via the env pool)
	// reaches a steady state where Reset allocates nothing. They start
	// sized for the plan, so what a run allocates does not depend on
	// which runs a pooled stack served before.
	if s.tentative == nil {
		n := len(s.Plan.Specs)
		s.tentative = make(map[netip.Addr]bool, 8)
		s.pendingDNS = make(map[uint16]pendingQuery, n)
		s.conns = make(map[connKey]*conn, n)
		s.contacted = make(map[string]map[bool]bool, n)
		s.essOK = make(map[string]bool, n)
		s.connOrder = make([]connKey, 0, n)
		s.llas = make([]netip.Addr, 0, 4)
		s.guas = make([]netip.Addr, 0, 8)
		s.ulas = make([]netip.Addr, 0, 4)
	} else {
		clear(s.tentative)
		clear(s.pendingDNS)
		clear(s.conns)
		clear(s.contacted)
		clear(s.essOK)
	}
	s.connOrder = s.connOrder[:0]
	s.nextDNSID = uint16(1000 + expSeq)
	s.nextPort = 40000
	s.dhcp6Pending = false
	s.retransmits = 0
	s.asleep = false
}

// ndpActive reports whether the device participates in IPv6 at all in the
// current mode.
func (s *Stack) ndpActive() bool {
	if !s.Prof.NDP || s.mode == ModeV4Only {
		return false
	}
	if s.Prof.SkipNDPInDualStack && s.mode == ModeDual {
		return false
	}
	return true
}

// assignsAddr reports whether the device configures addresses in this mode.
func (s *Stack) assignsAddr() bool {
	return s.ndpActive() && s.Prof.AssignAddr && !(s.Prof.DualOnlyAddr && s.mode != ModeDual)
}

func (s *Stack) hasGUA() bool { return len(s.guas) > 0 }
func (s *Stack) eui64GUA() netip.Addr {
	if s.Prof.EUI64GUA && len(s.guas) > 0 {
		return s.guas[0]
	}
	return netip.Addr{}
}

// privacyGUA returns the address the device prefers for ordinary traffic:
// the newest non-EUI-64 GUA, falling back to whatever exists.
func (s *Stack) privacyGUA() netip.Addr {
	for i := len(s.guas) - 1; i >= 0; i-- {
		if !(s.Prof.EUI64GUA && i == 0) {
			return s.guas[i]
		}
	}
	if len(s.guas) > 0 {
		return s.guas[0]
	}
	return netip.Addr{}
}

// GlobalAddrs returns a copy of every global unicast address the stack
// currently holds — SLAAC GUAs in assignment order plus the stateful
// DHCPv6 lease when the device actually uses it. This is the ground truth
// the adversary subsystem scores its hitlists against.
func (s *Stack) GlobalAddrs() []netip.Addr {
	out := make([]netip.Addr, 0, len(s.guas)+1)
	out = append(out, s.guas...)
	if s.statefulAddr.IsValid() && s.Prof.UsesStatefulAddr {
		out = append(out, s.statefulAddr)
	}
	return out
}

// PreferredSourceGUA returns the address the device uses as source for
// ordinary outbound traffic (the one a tracker-side observer sees).
func (s *Stack) PreferredSourceGUA() netip.Addr { return s.privacyGUA() }

// SeedDHCP4Transactions sets the DHCPv4 transaction counter as if the
// stack had already booted n times with IPv4 enabled. The parallel study
// engine uses it to give each isolated per-experiment environment (and
// the shared stacks the port scan reuses afterwards) the exact XID
// sequence the serial engine produces.
func (s *Stack) SeedDHCP4Transactions(n int) { s.dhcp4XID = uint32(n) }

// Boot kicks off network configuration for the current experiment.
func (s *Stack) Boot() {
	if s.mode != ModeV6Only {
		s.dhcp4XID++
		s.sendDHCP4(dhcp4.Discover, netip.Addr{})
	}
	if !s.ndpActive() {
		return
	}
	if !s.Prof.AssignAddr || (s.Prof.DualOnlyAddr && s.mode != ModeDual) {
		// The "::"-only devices: solicit routers without configuring.
		s.sendRS(netip.IPv6Unspecified())
		return
	}
	if s.Prof.LLA {
		lla := s.formLLA(0)
		s.addAddr(lla, !s.Prof.SkipDADLLA)
		s.sendRS(lla)
	} else {
		s.sendRS(netip.IPv6Unspecified())
	}
}

// formLLA derives the n-th link-local address.
func (s *Stack) formLLA(n int) netip.Addr {
	if n == 0 {
		if s.Prof.EUI64 {
			return addr.LinkLocalEUI64(s.MAC)
		}
		return addr.FromPrefixIID(addr.LinkLocalPrefix, s.hashIID("lla", 0))
	}
	return addr.FromPrefixIID(addr.LinkLocalPrefix, s.hashIID("lla", s.expSeq*100+n))
}

// addAddr installs an address, optionally probing it with DAD first.
// Re-adding an address the stack already holds is a no-op (no duplicate
// entry, no second DAD probe), so re-running SLAAC after a lost RA or a
// renumbering converges instead of accumulating.
func (s *Stack) addAddr(a netip.Addr, dad bool) {
	if s.ownsAddr(a) {
		return
	}
	switch addr.Classify(a) {
	case addr.KindLLA:
		s.llas = append(s.llas, a)
	case addr.KindULA:
		s.ulas = append(s.ulas, a)
	case addr.KindGUA:
		s.guas = append(s.guas, a)
	default:
		return
	}
	if dad {
		s.tentative[a] = true
		ns := &ndp.NeighborSolicit{Target: a}
		dst := addr.SolicitedNodeMulticast(a)
		s.sendICMPv6(netip.IPv6Unspecified(), dst, packet.ICMPv6TypeNeighborSolicit, ns.MarshalBody())
	}
}

// scheduleCount returns how many addresses of a kind this experiment
// contributes, distributing the profile's pinned total across the device's
// v6-enabled experiments (dual-only kinds across the two dual runs).
func (s *Stack) scheduleCount(total int, dualOnly bool) int {
	return s.scheduleCountN(total, dualOnly, 1)
}

// scheduleCountN is scheduleCount with `stable` addresses repeated every
// experiment (each counting once toward the distinct total).
func (s *Stack) scheduleCountN(total int, dualOnly bool, stable int) int {
	if total <= 0 {
		total = 1
	}
	if stable > total {
		stable = total
	}
	n := s.v6Exps
	seq := s.expSeq
	if dualOnly {
		n = 2
		seq = s.expSeq - (s.v6Exps - 2)
		if seq < 0 {
			return 0
		}
	}
	if n <= 0 || seq >= n {
		return 0
	}
	rot := total - stable
	per := rot / n
	if seq < rot%n {
		per++
	}
	return stable + per
}

// handleRA performs SLAAC against the received router advertisement.
func (s *Stack) handleRA(eth *packet.Ethernet, ra *ndp.RouterAdvert) {
	if s.raSeen != nil || !s.ndpActive() {
		return
	}
	s.raSeen = ra
	if !ra.SourceLinkAddr.IsZero() {
		s.routerMAC = ra.SourceLinkAddr
	} else {
		s.routerMAC = eth.Src
	}
	if !s.assignsAddr() {
		return
	}
	for _, pio := range ra.Prefixes {
		if !pio.AutonomousFlag {
			continue
		}
		switch {
		case pio.Prefix == s.prefixes.GUA && s.Prof.GUA:
			if s.Prof.DualOnlyGUA && s.mode != ModeDual {
				continue
			}
			// EUI-64 devices with more than one GUA keep a stable privacy
			// address alongside the stable EUI-64 one, so ordinary traffic
			// never has to fall back to the trackable address.
			stable := 1
			if s.Prof.EUI64GUA && s.Prof.GUACount >= 2 {
				stable = 2
			}
			n := s.scheduleCountN(s.Prof.GUACount, s.Prof.DualOnlyGUA, stable)
			for i := 0; i < n; i++ {
				var a netip.Addr
				switch {
				case i == 0 && s.Prof.EUI64GUA:
					a = addr.EUI64Addr(pio.Prefix, s.MAC)
				case i < stable:
					a = addr.FromPrefixIID(pio.Prefix, s.hashIID("gua", i))
				default:
					a = addr.FromPrefixIID(pio.Prefix, s.hashIID("gua", s.expSeq*100+i))
				}
				s.addAddr(a, !s.Prof.SkipDADGUA)
			}
		case pio.Prefix == s.prefixes.ULA && s.Prof.ULA:
			n := s.scheduleCount(s.Prof.ULACount, s.Prof.DualOnlyAddr)
			for i := 0; i < n; i++ {
				var a netip.Addr
				if i == 0 {
					if s.Prof.EUI64 {
						a = addr.EUI64Addr(pio.Prefix, s.MAC)
					} else {
						a = addr.FromPrefixIID(pio.Prefix, s.hashIID("ula", 0))
					}
				} else {
					a = addr.FromPrefixIID(pio.Prefix, s.hashIID("ula", s.expSeq*100+i))
				}
				s.addAddr(a, !s.Prof.SkipDADULA)
			}
		}
	}
	// Extra LLAs for the rotators.
	if s.Prof.LLA && s.Prof.LLACount > 1 {
		n := s.scheduleCount(s.Prof.LLACount, false)
		for i := 1; i < n; i++ {
			s.addAddr(s.formLLA(i), !s.Prof.SkipDADLLA)
		}
	}
	// DNS configuration: RDNSS unless the stack needs DHCPv6 for it.
	if len(ra.RDNSS) > 0 && len(ra.RDNSS[0].Servers) > 0 && !s.Prof.RequiresDHCPv6DNS && s.Prof.DNSOverV6 {
		s.dnsV6 = ra.RDNSS[0].Servers[0]
	}
	// DHCPv6 per the O and M flags.
	src := s.dhcp6Source()
	if !src.IsValid() {
		return
	}
	if ra.Managed && s.Prof.StatefulDHCPv6 {
		s.sendDHCP6(&dhcp6.Message{
			Type: dhcp6.Solicit, TxID: uint32(100 + s.expSeq), ClientID: dhcp6.DUIDFromMAC(s.MAC),
			RequestedOptions: []uint16{dhcp6.OptDNSServers},
			IANA:             &dhcp6.IANA{IAID: 1},
		}, src)
	} else if (ra.OtherConfig || ra.Managed) && s.Prof.StatelessDHCPv6 {
		s.sendDHCP6(&dhcp6.Message{
			Type: dhcp6.InfoRequest, TxID: uint32(200 + s.expSeq), ClientID: dhcp6.DUIDFromMAC(s.MAC),
			RequestedOptions: []uint16{dhcp6.OptDNSServers},
		}, src)
	}
}

// dhcp6Source picks the source address for DHCPv6 (normally the LLA).
func (s *Stack) dhcp6Source() netip.Addr {
	if len(s.llas) > 0 {
		return s.llas[0]
	}
	if len(s.ulas) > 0 {
		return s.ulas[0]
	}
	if len(s.guas) > 0 {
		return s.guas[0]
	}
	return netip.Addr{}
}

// Announce completes DAD (no conflicts arise on the testbed) and
// advertises every configured address so the router's neighbor table —
// which the port scanner harvests, §4.3 — learns them.
func (s *Stack) Announce() {
	for a := range s.tentative {
		delete(s.tentative, a)
	}
	if !s.assignsAddr() {
		return
	}
	for _, group := range [][]netip.Addr{s.llas, s.ulas, s.guas} {
		for _, a := range group {
			na := &ndp.NeighborAdvert{Override: true, Target: a, TargetLinkAddr: s.MAC}
			s.sendICMPv6(a, addr.AllNodesMulticast, packet.ICMPv6TypeNeighborAdvert, na.MarshalBody())
		}
	}
	if s.statefulAddr.IsValid() && s.Prof.UsesStatefulAddr {
		na := &ndp.NeighborAdvert{Override: true, Target: s.statefulAddr, TargetLinkAddr: s.MAC}
		s.sendICMPv6(s.statefulAddr, addr.AllNodesMulticast, packet.ICMPv6TypeNeighborAdvert, na.MarshalBody())
	}
}

// RunWorkload executes the experiment's planned traffic: DNS resolution,
// TCP/TLS exchanges, NTP, hardcoded-endpoint contacts, local-protocol
// chatter, and the EUI-64 probes.
func (s *Stack) RunWorkload(cl *cloud.Cloud) {
	// Per-contact byte budgets.
	nV4, nV6 := 0, 0
	for i := range s.Plan.Specs {
		v4, v6 := s.familiesFor(&s.Plan.Specs[i])
		if v4 {
			nV4++
		}
		if v6 {
			nV6++
		}
	}
	s.v4ByteEach, s.v6ByteEach = 800, 800
	if s.mode == ModeDual {
		if nV4 > 0 {
			s.v4ByteEach = max(16, s.Plan.V4Bytes/nV4)
		}
		if nV6 > 0 {
			s.v6ByteEach = max(16, s.Plan.V6Bytes/nV6)
		}
	} else if n := nV4 + nV6; n > 0 {
		each := max(16, s.Plan.TotalBytes/n)
		s.v4ByteEach, s.v6ByteEach = each, each
	}

	for i := range s.Plan.Specs {
		s.startSpec(i, cl)
	}
	s.sendNTP()
	s.sendStatefulDNS()
	s.sendLocalData()
	s.sendEUI64Probe()
}

// familiesFor evaluates which families the device will contact a spec over
// in the current mode (before DNS outcomes are known).
func (s *Stack) familiesFor(sp *DomainSpec) (v4, v6 bool) {
	v4up := s.mode != ModeV6Only
	// A GUA alone is not enough: without a live default router (an RA
	// within its lifetime) the device has no v6 path off-link.
	v6up := s.ndpActive() && s.hasGUA() && s.raSeen != nil
	switch sp.Class {
	case ClassV4Stay, ClassV4WithAAAA:
		v4 = v4up
	case ClassV4NonCommon:
		v4 = s.mode == ModeV4Only
	case ClassExt46:
		v4 = v4up
		v6 = s.mode == ModeDual && v6up
	case ClassSw46:
		v4 = s.mode == ModeV4Only
		v6 = s.mode == ModeDual && v6up
	case ClassV6Stay:
		v6 = s.mode != ModeV4Only && v6up
	case ClassV6NonCommon:
		v6 = s.mode == ModeV6Only && v6up
	case ClassExt64:
		v6 = s.mode != ModeV4Only && v6up
		v4 = s.mode == ModeDual
	case ClassSw64:
		v6 = s.mode == ModeV6Only && v6up
		v4 = s.mode == ModeDual
	case ClassHardcoded:
		v6 = s.mode != ModeV4Only && v6up
	case ClassDNSOnly:
		// resolution only
	}
	if sp.Essential {
		// The primary function is attempted in every experiment.
		v4 = v4 || v4up
		v6 = v6 || (s.mode == ModeV6Only && v6up && sp.HasAAAA && !sp.AOnlyV6)
	}
	if s.Prof.DualOnlyInternetData && s.mode == ModeV6Only {
		v6 = false
	}
	return v4, v6
}

// startSpec issues the DNS queries (or direct contacts) for one spec.
func (s *Stack) startSpec(i int, cl *cloud.Cloud) {
	sp := &s.Plan.Specs[i]
	wantV4, wantV6 := s.familiesFor(sp)
	if sp.AliasOnly || sp.Class == ClassDNSOnly {
		s.resolveSpec(i, false, false)
		return
	}
	if sp.NoDNS {
		if wantV6 {
			// Vendor-configured literal endpoint: no resolution, straight
			// to TCP with SNI.
			if d := cl.Lookup(sp.Name); d != nil && len(d.V6) > 0 {
				s.openTCP(i, d.V6[0], sp.Name, true, sp.ViaEUI64)
			}
		}
		if wantV4 {
			s.resolveSpec(i, true, false)
		}
		return
	}
	s.resolveSpec(i, wantV4, wantV6)
}

// resolveSpec issues the planned queries for a spec.
func (s *Stack) resolveSpec(i int, wantV4, wantV6 bool) {
	sp := &s.Plan.Specs[i]
	v4DNS := s.mode != ModeV6Only && s.v4Addr.IsValid()
	v6DNS := s.dnsV6.IsValid() && s.hasGUA() && s.raSeen != nil

	// A queries: needed for v4 contact; A-only names also probe over v6.
	if wantV4 && v4DNS {
		s.sendDNS(i, dnsmsg.TypeA, false, sp.ViaEUI64)
	}
	if sp.AOnlyV6 && s.mode == ModeV6Only && v6DNS {
		s.sendDNS(i, dnsmsg.TypeA, true, sp.ViaEUI64)
		return
	}
	// In an IPv6-only network, names with no v6 role are simply never
	// resolved: the third-party libraries and v4-only backends that would
	// ask for them are not reachable (§5.4.3's disappearing trackers).
	if s.mode == ModeV6Only && !wantV6 && !sp.Essential && !sp.AliasOnly && sp.Class != ClassDNSOnly {
		return
	}
	// AAAA / HTTPS queries.
	doAAAA := sp.QueryAAAA || (wantV6 && !sp.UseHTTPS)
	if sp.AOnlyV6 {
		doAAAA = false
	}
	if sp.UseHTTPS {
		if v6DNS {
			s.sendDNSType(i, dnsmsg.TypeHTTPS, true, sp.ViaEUI64)
		} else if v4DNS && s.mode == ModeDual {
			s.sendDNSType(i, dnsmsg.TypeHTTPS, false, sp.ViaEUI64)
		}
		return
	}
	if !doAAAA {
		return
	}
	switch {
	case sp.AAAAViaV4Only:
		if v4DNS {
			s.sendDNS(i, dnsmsg.TypeAAAA, false, sp.ViaEUI64)
		}
	case v6DNS:
		s.sendDNS(i, dnsmsg.TypeAAAA, true, sp.ViaEUI64)
		if s.Prof.AAAAOverV4 && v4DNS && s.mode == ModeDual {
			// Selective adoption: some stacks duplicate AAAA over v4.
			s.sendDNS(i, dnsmsg.TypeAAAA, false, sp.ViaEUI64)
		}
	case s.Prof.AAAAOverV4 && v4DNS:
		s.sendDNS(i, dnsmsg.TypeAAAA, false, sp.ViaEUI64)
	}
}

func (s *Stack) sendDNS(i int, t dnsmsg.Type, overV6, viaEUI64 bool) {
	s.sendDNSType(i, t, overV6, viaEUI64)
}

// sendDNSType emits one DNS query over the chosen transport.
func (s *Stack) sendDNSType(i int, t dnsmsg.Type, overV6, viaEUI64 bool) {
	sp := &s.Plan.Specs[i]
	s.nextDNSID++
	id := s.nextDNSID
	s.pendingDNS[id] = pendingQuery{specIdx: i, qtype: t, overV6: overV6, viaEUI64: viaEUI64}
	wire, err := s.packQuery(id, sp.Name, t)
	if err != nil {
		return
	}
	if overV6 {
		src := s.privacyGUA()
		if viaEUI64 && s.Prof.EUI64ForDNS && s.eui64GUA().IsValid() {
			src = s.eui64GUA()
		}
		if !src.IsValid() {
			return
		}
		s.sendUDP(src, s.dnsV6, 53, wire)
		return
	}
	if s.v4Addr.IsValid() {
		s.sendUDP(s.v4Addr, cloud.DNSv4, 53, wire)
	}
}

// packQuery encodes a standard recursive query for one question into the
// stack's reused DNS buffer; the bytes are valid until the next query.
func (s *Stack) packQuery(id uint16, name string, t dnsmsg.Type) ([]byte, error) {
	s.dnsQ[0] = dnsmsg.Question{Name: name, Type: t}
	q := dnsmsg.Message{ID: id, RecursionDesired: true, Questions: s.dnsQ[:]}
	var err error
	s.dnsWire, err = q.AppendPack(s.dnsWire[:0])
	return s.dnsWire, err
}

// handleDNSResponse reacts to an answer: v6 addresses trigger TCP over v6,
// v4 addresses over v4 — if the spec's plan calls for that family now.
func (s *Stack) handleDNSResponse(p *packet.Packet) {
	m := &s.dnsReply
	if err := dnsmsg.UnpackInto(m, p.UDP.PayloadData); err != nil || !m.Response {
		return
	}
	pq, ok := s.pendingDNS[m.ID]
	if !ok {
		return
	}
	delete(s.pendingDNS, m.ID)
	sp := &s.Plan.Specs[pq.specIdx]
	if sp.AliasOnly || sp.Class == ClassDNSOnly {
		return
	}
	wantV4, wantV6 := s.familiesFor(sp)
	for _, rr := range m.Answers {
		switch {
		case rr.Type == dnsmsg.TypeA && rr.Addr.Is4() && wantV4:
			s.openTCP(pq.specIdx, rr.Addr, sp.Name, false, false)
			wantV4 = false
		case (rr.Type == dnsmsg.TypeAAAA || rr.Type == dnsmsg.TypeHTTPS || rr.Type == dnsmsg.TypeSVCB) &&
			rr.Addr.Is6() && !rr.Addr.Is4In6() && wantV6:
			s.openTCP(pq.specIdx, rr.Addr, sp.Name, true, sp.ViaEUI64)
			wantV6 = false
		}
	}
}

// openTCP starts a TCP/TLS exchange toward dst.
func (s *Stack) openTCP(specIdx int, dst netip.Addr, name string, v6, viaEUI64 bool) {
	if done := s.contacted[name]; done != nil && done[v6] {
		return
	}
	if s.contacted[name] == nil {
		s.contacted[name] = map[bool]bool{}
	}
	s.contacted[name][v6] = true

	var src netip.Addr
	bytes := s.v4ByteEach
	if v6 {
		src = s.privacyGUA()
		if viaEUI64 && s.Prof.EUI64ForData && s.eui64GUA().IsValid() {
			src = s.eui64GUA()
		}
		bytes = s.v6ByteEach
	} else {
		src = s.v4Addr
	}
	if !src.IsValid() {
		return
	}
	s.nextPort++
	c := &conn{specIdx: specIdx, name: name, src: src, dst: dst, dport: 443, bytes: bytes, seq: 1,
		needSNI: s.Plan.Specs[specIdx].NoDNS}
	key := connKey{dst: dst, sport: s.nextPort}
	s.conns[key] = c
	s.connOrder = append(s.connOrder, key)
	s.sendTCP(src, dst, s.nextPort, 443, packet.TCPFlagSYN, c.seq, 0, tlsSegment{})
}

// handleTCP advances client connections and answers scanner probes.
func (s *Stack) handleTCP(p *packet.Packet) {
	t := p.TCP
	key := connKey{dst: p.SrcIP(), sport: t.DstPort}
	if c, ok := s.conns[key]; ok {
		switch {
		case t.HasFlag(packet.TCPFlagSYN | packet.TCPFlagACK):
			// Handshake done: ACK, then TLS hello + application payload.
			// Tiny flows skip the hello (attribution falls back to DNS)
			// unless the destination is only attributable via SNI,
			// keeping the per-family volume budgets faithful.
			c.seq++
			c.hello = tlssim.ClientHello(c.name, nil)
			if c.bytes >= len(c.hello) || c.needSNI {
				c.payloadLen = max(c.bytes, len(c.hello))
			} else {
				c.hello = nil
				c.payloadLen = max(16, c.bytes)
			}
			s.sendTCP(c.src, c.dst, key.sport, c.dport, packet.TCPFlagACK, c.seq, t.Seq+1, tlsSegment{})
			c.payloadStart = c.seq
			c.lastAck = t.Seq + 1
			s.sendPayload(key, c)
			c.state = 1
		case t.HasFlag(packet.TCPFlagRST):
			c.state = 3
		case c.state == 1 && len(t.PayloadData) > 0:
			// Server answered: the exchange succeeded.
			s.markSuccess(c.specIdx)
			s.sendTCP(c.src, c.dst, key.sport, c.dport, packet.TCPFlagFIN|packet.TCPFlagACK, c.seq, t.Seq+uint32(len(t.PayloadData)), tlsSegment{})
			c.state = 2
		case c.state == 2 && t.HasFlag(packet.TCPFlagFIN):
			c.state = 3
		}
		return
	}
	// Inbound probe (port scanner): SYN to one of our addresses. Replies
	// go straight back to the probing host's MAC.
	if t.HasFlag(packet.TCPFlagSYN) && !t.HasFlag(packet.TCPFlagACK) && s.ownsAddr(p.DstIP()) {
		flags := packet.TCPFlagRST | packet.TCPFlagACK
		seq := uint32(0)
		if s.portOpen(p.DstIP(), t.DstPort, true) {
			flags = packet.TCPFlagSYN | packet.TCPFlagACK
			seq = 1000
		}
		s.sendTCPTo(p.Ethernet.Src, p.DstIP(), p.SrcIP(), t.DstPort, t.SrcPort, flags, seq, t.Seq+1, tlsSegment{})
	}
}

func (s *Stack) markSuccess(specIdx int) {
	sp := &s.Plan.Specs[specIdx]
	if sp.Essential {
		s.essOK[sp.Name] = true
	}
}

// Functional reports whether the device's primary function worked in this
// experiment: every essential destination exchanged application data.
func (s *Stack) Functional() bool {
	for _, sp := range s.Plan.EssentialSpecs() {
		if !s.essOK[sp.Name] {
			return false
		}
	}
	return true
}

// ownsAddr reports whether a is one of the device's configured addresses.
func (s *Stack) ownsAddr(a netip.Addr) bool {
	if a == s.v4Addr && a.IsValid() {
		return true
	}
	for _, group := range [][]netip.Addr{s.llas, s.ulas, s.guas} {
		for _, own := range group {
			if own == a {
				return true
			}
		}
	}
	return a.IsValid() && a == s.statefulAddr
}

// portOpen consults the per-family open-port sets (§5.4.2).
func (s *Stack) portOpen(local netip.Addr, port uint16, tcp bool) bool {
	var set []uint16
	v6 := local.Is6() && !local.Is4In6()
	switch {
	case tcp && v6:
		set = s.Prof.OpenTCPv6
	case tcp:
		set = s.Prof.OpenTCPv4
	case v6:
		set = s.Prof.OpenUDPv6
	default:
		set = s.Prof.OpenUDPv4
	}
	for _, p := range set {
		if p == port {
			return true
		}
	}
	return false
}

// sendNTP issues the periodic clock sync: over v4 when available, over v6
// for devices with global v6 connectivity.
func (s *Stack) sendNTP() {
	reqBody := make([]byte, 48)
	reqBody[0] = 0x23 // LI=0 VN=4 mode=client
	if s.mode != ModeV6Only && s.v4Addr.IsValid() {
		s.sendUDP(s.v4Addr, cloud.NTPv4, 123, reqBody)
	}
	if s.Prof.V6InternetData && s.hasGUA() && s.mode != ModeV4Only &&
		!(s.Prof.DualOnlyInternetData && s.mode == ModeV6Only) {
		src := s.privacyGUA()
		if s.Prof.EUI64ForNTP && s.eui64GUA().IsValid() {
			src = s.eui64GUA()
			// These stacks resolve the pool name from the same address,
			// which is how the NTP destination becomes attributable (and
			// exposed) in the captures.
			if s.dnsV6.IsValid() {
				s.nextDNSID++
				if q, err := s.packQuery(s.nextDNSID, cloud.NTPDomain, dnsmsg.TypeAAAA); err == nil {
					s.sendUDP(src, s.dnsV6, 53, q)
				}
			}
		}
		s.sendUDP(src, cloud.NTPv6, 123, reqBody)
	}
}

// sendStatefulDNS sources one DNS lookup from the IA_NA lease — the only
// observable "use" the four stateful-address devices make of it (§5.2.1).
func (s *Stack) sendStatefulDNS() {
	if !s.statefulAddr.IsValid() || !s.Prof.UsesStatefulAddr || !s.dnsV6.IsValid() {
		return
	}
	ess := s.Plan.EssentialSpecs()
	if len(ess) == 0 {
		return
	}
	s.nextDNSID++
	wire, err := s.packQuery(s.nextDNSID, ess[0].Name, dnsmsg.TypeA)
	if err != nil {
		return
	}
	s.sendUDP(s.statefulAddr, s.dnsV6, 53, wire)
}

// sendLocalData emits the Matter/HomeKit-style local-network chatter.
func (s *Stack) sendLocalData() {
	if !s.Prof.V6LocalData || !s.assignsAddr() {
		return
	}
	src := netip.Addr{}
	switch {
	case len(s.ulas) > 0:
		src = s.ulas[0]
	case len(s.llas) > 0:
		src = s.llas[0]
	}
	if !src.IsValid() {
		return
	}
	// Announce the device's local service the way Matter/HomeKit stacks
	// do: a DNS-SD record set over mDNS, plus the service's own chatter.
	service := mdns.MatterService
	port := uint16(5540)
	if s.Prof.Category == Gateway {
		service = mdns.HAPService
		port = 80
	}
	ann := &mdns.Announcement{
		Instance: slug(s.Prof.Name),
		Service:  service,
		Port:     port,
		Addr:     src,
		TXT:      []string{"VP=65521+32769", "CM=1"},
	}
	if wire, err := ann.Pack(); err == nil {
		s.sendUDP(src, mdns.GroupV6, mdns.Port, wire)
	}
	s.sendUDP(src, mdns.GroupV6, port, []byte("local-protocol keepalive"))
}

// sendEUI64Probe emits the connectivity check some stacks source from
// their EUI-64 address (a Figure 5 "use").
func (s *Stack) sendEUI64Probe() {
	if !s.Prof.EUI64Probe || s.mode == ModeV4Only {
		return
	}
	a := s.eui64GUA()
	if !a.IsValid() {
		return
	}
	body := []byte{0, 1, 0, byte(s.expSeq), 'p', 'r', 'o', 'b'}
	s.sendICMPv6(a, cloud.DNSv6, packet.ICMPv6TypeEchoRequest, body)
}

// HandleFrame implements netsim.Host.
func (s *Stack) HandleFrame(frame []byte) {
	if s.asleep {
		return
	}
	p := s.dec.Parse(frame)
	if p.Ethernet == nil || p.Err != nil {
		return
	}
	switch {
	case p.ARP != nil:
		s.handleARP(p)
	case p.IPv4 != nil:
		s.handleV4(p)
	case p.IPv6 != nil:
		s.handleV6(p)
	}
}

func (s *Stack) handleARP(p *packet.Packet) {
	if p.ARP.Op == packet.ARPRequest && p.ARP.TargetIP == s.v4Addr && s.v4Addr.IsValid() {
		s.transmit(
			&packet.Ethernet{Dst: p.Ethernet.Src, Src: s.MAC, Type: packet.EtherTypeARP},
			&packet.ARP{Op: packet.ARPReply, SenderMAC: s.MAC, SenderIP: s.v4Addr,
				TargetMAC: p.ARP.SenderMAC, TargetIP: p.ARP.SenderIP})
	}
}

func (s *Stack) handleV4(p *packet.Packet) {
	switch {
	case p.UDP != nil && p.UDP.DstPort == dhcp4.ClientPort:
		s.handleDHCP4(p)
	case p.UDP != nil && p.UDP.SrcPort == 53 && p.IPv4.Dst == s.v4Addr:
		s.handleDNSResponse(p)
	case p.TCP != nil && p.IPv4.Dst == s.v4Addr:
		s.handleTCP(p)
	case p.UDP != nil && p.IPv4.Dst == s.v4Addr && p.UDP.SrcPort == 123:
		// NTP response; nothing to do.
	case p.UDP != nil && p.IPv4.Dst == s.v4Addr:
		s.handleUDPProbe(p)
	case p.ICMPv4 != nil && p.ICMPv4.Type == packet.ICMPv4TypeEchoRequest && p.IPv4.Dst == s.v4Addr:
		s.sendICMPv4(p.IPv4.Src, packet.ICMPv4TypeEchoReply, p.ICMPv4.Body, p.Ethernet.Src)
	}
}

func (s *Stack) handleV6(p *packet.Packet) {
	if !s.ndpActive() {
		return
	}
	dst := p.IPv6.Dst
	mine := s.ownsAddr(dst) || dst.IsMulticast()
	switch {
	case p.ICMPv6 != nil:
		s.handleICMPv6(p)
	case p.UDP != nil && p.UDP.DstPort == dhcp6.ClientPort && mine:
		s.handleDHCP6(p)
	case p.UDP != nil && p.UDP.SrcPort == 53 && s.ownsAddr(dst):
		s.handleDNSResponse(p)
	case p.TCP != nil && s.ownsAddr(dst):
		s.handleTCP(p)
	case p.UDP != nil && s.ownsAddr(dst) && p.UDP.SrcPort == 123:
		// NTP response.
	case p.UDP != nil && s.ownsAddr(dst):
		s.handleUDPProbe(p)
	}
}

func (s *Stack) handleICMPv6(p *packet.Packet) {
	ic := p.ICMPv6
	switch ic.Type {
	case packet.ICMPv6TypeRouterAdvert:
		if ra, err := ndp.ParseRouterAdvert(ic.Body); err == nil {
			s.handleRA(p.Ethernet, ra)
		}
	case packet.ICMPv6TypeNeighborSolicit:
		ns, err := ndp.ParseNeighborSolicit(ic.Body)
		if err != nil || !s.ownsAddr(ns.Target) || s.tentative[ns.Target] {
			return
		}
		// Address resolution for one of our addresses.
		na := &ndp.NeighborAdvert{Solicited: true, Override: true, Target: ns.Target, TargetLinkAddr: s.MAC}
		dst := p.IPv6.Src
		if !dst.IsValid() || addr.Classify(dst) == addr.KindUnspecified {
			dst = addr.AllNodesMulticast
		}
		s.sendICMPv6(ns.Target, dst, packet.ICMPv6TypeNeighborAdvert, na.MarshalBody())
	case packet.ICMPv6TypePacketTooBig:
		s.handlePacketTooBig(ic.Body)
	case packet.ICMPv6TypeEchoRequest:
		// Reply to pings addressed to us (including all-nodes multicast,
		// the scanner's address-harvesting trick), directly to the
		// pinger's link-layer address.
		target := p.IPv6.Dst
		if s.ownsAddr(target) {
			s.sendICMPv6To(p.Ethernet.Src, target, p.IPv6.Src, packet.ICMPv6TypeEchoReply, ic.Body)
		} else if target == addr.AllNodesMulticast && s.assignsAddr() {
			src := s.dhcp6Source()
			if src.IsValid() {
				s.sendICMPv6To(p.Ethernet.Src, src, p.IPv6.Src, packet.ICMPv6TypeEchoReply, ic.Body)
			}
		}
	}
}

func (s *Stack) handleDHCP4(p *packet.Packet) {
	if s.mode == ModeV6Only {
		return
	}
	m, err := dhcp4.Unmarshal(p.UDP.PayloadData)
	if err != nil || m.ClientMAC != s.MAC {
		return
	}
	switch m.Type {
	case dhcp4.Offer:
		s.routerMACv4(p.Ethernet.Src)
		s.sendDHCP4(dhcp4.Request, m.YourIP)
	case dhcp4.ACK:
		s.v4Addr = m.YourIP
		s.dhcp4Acks++
		s.routerMACv4(p.Ethernet.Src)
	}
}

func (s *Stack) routerMACv4(m packet.MAC) {
	if s.routerMAC.IsZero() {
		s.routerMAC = m
	}
}

func (s *Stack) handleDHCP6(p *packet.Packet) {
	m, err := dhcp6.Unmarshal(p.UDP.PayloadData)
	if err != nil {
		return
	}
	switch m.Type {
	case dhcp6.Advertise:
		if m.IANA != nil && len(m.IANA.Addrs) > 0 {
			s.dhcp6ServerID = m.ServerID
			req := &dhcp6.Message{
				Type: dhcp6.Request, TxID: uint32(300 + s.expSeq),
				ClientID: dhcp6.DUIDFromMAC(s.MAC), ServerID: m.ServerID,
				RequestedOptions: []uint16{dhcp6.OptDNSServers},
				IANA:             &dhcp6.IANA{IAID: 1},
			}
			if src := s.dhcp6Source(); src.IsValid() {
				s.sendDHCP6(req, src)
			}
		}
	case dhcp6.Reply:
		s.dhcp6Pending = false
		s.dhcp6Replies++
		if m.IANA != nil && len(m.IANA.Addrs) > 0 {
			s.statefulAddr = m.IANA.Addrs[0].Addr
		}
		if len(m.DNS) > 0 && s.Prof.DNSOverV6 && !s.dnsV6.IsValid() {
			s.dnsV6 = m.DNS[0]
		}
	}
}

// handleUDPProbe answers the scanner's UDP probes: closed ports elicit an
// ICMP port-unreachable, open ports stay silent (nmap's open|filtered).
func (s *Stack) handleUDPProbe(p *packet.Packet) {
	if s.portOpen(p.DstIP(), p.UDP.DstPort, false) {
		return
	}
	if p.IsIPv6() {
		// ICMPv6 destination unreachable, code 4 (port): 4 unused bytes
		// followed by the invoking packet.
		body := append(make([]byte, 4), p.Ethernet.PayloadData...)
		ic := &packet.ICMPv6{Type: packet.ICMPv6TypeDestUnreachable, Code: 4, Body: body, Src: p.IPv6.Dst, Dst: p.IPv6.Src}
		s.transmit(
			&packet.Ethernet{Dst: p.Ethernet.Src, Src: s.MAC, Type: packet.EtherTypeIPv6},
			&packet.IPv6{NextHeader: packet.IPProtocolICMPv6, HopLimit: 64, Src: p.IPv6.Dst, Dst: p.IPv6.Src},
			ic)
		return
	}
	body := append(make([]byte, 4), p.Ethernet.PayloadData...)
	s.transmit(
		&packet.Ethernet{Dst: p.Ethernet.Src, Src: s.MAC, Type: packet.EtherTypeIPv4},
		&packet.IPv4{Protocol: packet.IPProtocolICMPv4, Src: p.IPv4.Dst, Dst: p.IPv4.Src},
		&packet.ICMPv4{Type: 3, Code: 3, Body: body})
}

// --- send helpers ---

// transmit serializes layers into the stack's reusable tx buffer and puts
// the frame on the wire. Serialization failures drop the frame, the same
// policy every call site applied individually.
func (s *Stack) transmit(layers ...packet.SerializableLayer) {
	frame, err := packet.SerializeInto(s.tx, layers...)
	if err == nil {
		s.port.Send(frame)
	}
}

func (s *Stack) etherDstV6(dst netip.Addr) packet.MAC {
	if dst.IsMulticast() {
		return addr.MulticastMAC(dst)
	}
	// Off-link and on-link unicast both go through/are the router in this
	// testbed (the router answers NS for itself; the cloud is behind it).
	if !s.routerMAC.IsZero() {
		return s.routerMAC
	}
	return packet.BroadcastMAC
}

func (s *Stack) sendICMPv6(src, dst netip.Addr, typ uint8, body []byte) {
	s.sendICMPv6To(s.etherDstV6(dst), src, dst, typ, body)
}

func (s *Stack) sendICMPv6To(dstMAC packet.MAC, src, dst netip.Addr, typ uint8, body []byte) {
	hop := uint8(255)
	if typ == packet.ICMPv6TypeEchoRequest || typ == packet.ICMPv6TypeEchoReply {
		hop = 64
	}
	s.transmit(
		&packet.Ethernet{Dst: dstMAC, Src: s.MAC, Type: packet.EtherTypeIPv6},
		&packet.IPv6{NextHeader: packet.IPProtocolICMPv6, HopLimit: hop, Src: src, Dst: dst},
		&packet.ICMPv6{Type: typ, Body: body, Src: src, Dst: dst},
	)
}

func (s *Stack) sendICMPv4(dst netip.Addr, typ uint8, body []byte, dstMAC packet.MAC) {
	s.transmit(
		&packet.Ethernet{Dst: dstMAC, Src: s.MAC, Type: packet.EtherTypeIPv4},
		&packet.IPv4{Protocol: packet.IPProtocolICMPv4, Src: s.v4Addr, Dst: dst},
		&packet.ICMPv4{Type: typ, Body: body},
	)
}

func (s *Stack) sendRS(src netip.Addr) {
	rs := &ndp.RouterSolicit{}
	if addr.Classify(src) != addr.KindUnspecified {
		rs.SourceLinkAddr = s.MAC
	}
	s.sendICMPv6(src, addr.AllRoutersMulticast, packet.ICMPv6TypeRouterSolicit, rs.MarshalBody())
}

func (s *Stack) sendDHCP4(typ uint8, requested netip.Addr) {
	m := &dhcp4.Message{Op: 1, XID: s.dhcp4XID, ClientMAC: s.MAC, Type: typ}
	if requested.IsValid() {
		m.Requested = requested
		m.ServerID = netip.MustParseAddr("192.168.1.1")
	}
	wire, err := m.Marshal()
	if err != nil {
		return
	}
	zero := netip.MustParseAddr("0.0.0.0")
	bcast := netip.MustParseAddr("255.255.255.255")
	s.transmit(
		&packet.Ethernet{Dst: packet.BroadcastMAC, Src: s.MAC, Type: packet.EtherTypeIPv4},
		&packet.IPv4{Protocol: packet.IPProtocolUDP, Src: zero, Dst: bcast},
		&packet.UDP{SrcPort: dhcp4.ClientPort, DstPort: dhcp4.ServerPort, Src: zero, Dst: bcast},
		packet.Raw(wire),
	)
}

func (s *Stack) sendDHCP6(m *dhcp6.Message, src netip.Addr) {
	wire, err := m.Marshal()
	if err != nil {
		return
	}
	// Every client message opens (or keeps open) a transaction awaiting a
	// server reply; RetryConfig retransmits while this stays set.
	s.dhcp6Pending = true
	dst := netip.MustParseAddr(dhcp6.AllRelayAgentsAndServers)
	s.transmit(
		&packet.Ethernet{Dst: addr.MulticastMAC(dst), Src: s.MAC, Type: packet.EtherTypeIPv6},
		&packet.IPv6{NextHeader: packet.IPProtocolUDP, Src: src, Dst: dst},
		&packet.UDP{SrcPort: dhcp6.ClientPort, DstPort: dhcp6.ServerPort, Src: src, Dst: dst},
		packet.Raw(wire),
	)
}

func (s *Stack) sendUDP(src, dst netip.Addr, dport uint16, payload []byte) {
	s.nextPort++
	var dstMAC packet.MAC
	if src.Is4() {
		dstMAC = s.routerMAC
		if dstMAC.IsZero() {
			dstMAC = packet.BroadcastMAC
		}
	} else {
		dstMAC = s.etherDstV6(dst)
	}
	sport := s.nextPort
	if dport == 123 {
		sport = 123
	}
	s.udpL = packet.UDP{SrcPort: sport, DstPort: dport, Src: src, Dst: dst}
	s.rawL = payload
	s.transmit(&s.ethL, s.ipLayer(dstMAC, src, dst, packet.IPProtocolUDP), &s.udpL, &s.rawL)
}

// ipLayer fills the stack's reused Ethernet header and the IP header of
// src's family for one outgoing frame, and returns the IP layer.
func (s *Stack) ipLayer(dstMAC packet.MAC, src, dst netip.Addr, proto packet.IPProtocol) packet.SerializableLayer {
	if src.Is4() {
		s.ethL = packet.Ethernet{Dst: dstMAC, Src: s.MAC, Type: packet.EtherTypeIPv4}
		s.ip4L = packet.IPv4{Protocol: proto, Src: src, Dst: dst}
		return &s.ip4L
	}
	s.ethL = packet.Ethernet{Dst: dstMAC, Src: s.MAC, Type: packet.EtherTypeIPv6}
	s.ip6L = packet.IPv6{NextHeader: proto, Src: src, Dst: dst}
	return &s.ip6L
}

// sendTCP emits a TCP segment carrying payload, a window of a flow's TLS
// payload; the zero tlsSegment carries none.
func (s *Stack) sendTCP(src, dst netip.Addr, sport, dport uint16, flags uint8, seq, ack uint32, payload tlsSegment) {
	var dstMAC packet.MAC
	if src.Is4() {
		dstMAC = s.routerMAC
		if dstMAC.IsZero() {
			dstMAC = packet.BroadcastMAC
		}
	} else {
		dstMAC = s.etherDstV6(dst)
	}
	s.sendTCPTo(dstMAC, src, dst, sport, dport, flags, seq, ack, payload)
}

// sendTCPTo emits a TCP segment to an explicit link-layer destination
// (used for answering on-link probes).
func (s *Stack) sendTCPTo(dstMAC packet.MAC, src, dst netip.Addr, sport, dport uint16, flags uint8, seq, ack uint32, payload tlsSegment) {
	ip := s.ipLayer(dstMAC, src, dst, packet.IPProtocolTCP)
	s.tcpL = packet.TCP{SrcPort: sport, DstPort: dport, Seq: seq, Ack: ack, Flags: flags, Src: src, Dst: dst}
	if payload.end == payload.off {
		// Control segments skip the payload layer.
		s.transmit(&s.ethL, ip, &s.tcpL)
		return
	}
	s.segL = payload
	s.transmit(&s.ethL, ip, &s.tcpL, &s.segL)
}
