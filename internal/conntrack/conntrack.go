// Package conntrack implements a deterministic, clock-driven connection
// tracking table for the testbed router: the state a stateful IPv6
// firewall (RFC 6092) needs to tell return traffic of LAN-originated
// flows apart from unsolicited Internet probes.
//
// Flows are keyed by the 5-tuple in the orientation of the originator
// (the LAN device). Each flow walks a small state machine
// (NEW → ESTABLISHED → CLOSING) driven by TCP flags and reply sightings,
// idles out on per-state timeouts swept by a timer wheel on the simulated
// clock, and is LRU-evicted when the table hits its configured capacity.
// Everything is single-threaded and allocation-light: the wheel and the
// LRU are intrusive doubly-linked lists threaded through the Flow structs
// themselves, so the hot path (lookup + touch) does no allocation at all.
package conntrack

import (
	"fmt"
	"net/netip"
	"time"

	"v6lab/internal/packet"
)

// Clock is the time source the table expires flows against. netsim.Clock
// satisfies it.
type Clock interface {
	Now() time.Time
}

// FlowKey identifies a flow by its 5-tuple, oriented as the packet that
// carried it (Src is the sender). For ICMPv6 the ports are zero and the
// key degenerates to (proto, src, dst), which is enough to pair echo
// requests with their replies in the testbed.
type FlowKey struct {
	Proto            packet.IPProtocol
	Src, Dst         netip.Addr
	SrcPort, DstPort uint16
}

// Reverse returns the key of traffic flowing in the opposite direction.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{Proto: k.Proto, Src: k.Dst, Dst: k.Src, SrcPort: k.DstPort, DstPort: k.SrcPort}
}

// String renders the key for diagnostics.
func (k FlowKey) String() string {
	return fmt.Sprintf("%v [%s]:%d -> [%s]:%d", k.Proto, k.Src, k.SrcPort, k.Dst, k.DstPort)
}

// State is a flow's position in the tracking state machine.
type State uint8

// The tracking states.
const (
	// StateNew: the originator has sent traffic but no reply has been seen.
	StateNew State = iota
	// StateEstablished: traffic has been seen in both directions.
	StateEstablished
	// StateClosing: a FIN or RST was observed; the flow lingers briefly so
	// the final handshake segments still match, then expires.
	StateClosing
)

// String names the state in iptables conntrack vocabulary.
func (s State) String() string {
	switch s {
	case StateNew:
		return "NEW"
	case StateEstablished:
		return "ESTABLISHED"
	case StateClosing:
		return "CLOSING"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Flow is one tracked connection.
type Flow struct {
	Key     FlowKey
	State   State
	Created time.Time
	// LastSeen is the time of the most recent packet in either direction.
	LastSeen time.Time
	// OrigPackets and ReplyPackets count packets per direction.
	OrigPackets, ReplyPackets int

	expiry time.Time
	// Intrusive list links: wheel bucket and LRU order.
	slot                 int // wheel slot index, -1 when unlinked
	wheelPrev, wheelNext *Flow
	lruPrev, lruNext     *Flow
}

// Config sets the table's capacity and timeouts.
type Config struct {
	// MaxFlows caps the table; inserting beyond it evicts the least
	// recently used flow. Zero means DefaultConfig's cap.
	MaxFlows int
	// NewTimeout, EstablishedTimeout, and ClosingTimeout are the per-state
	// idle limits.
	NewTimeout, EstablishedTimeout, ClosingTimeout time.Duration
	// WheelSlot is the timer wheel granularity; expiry is checked to this
	// precision. Zero means one second.
	WheelSlot time.Duration
}

// DefaultConfig mirrors common home-router conntrack defaults, scaled to
// the testbed (nf_conntrack uses 30s/5min-plus for NEW/ESTABLISHED).
func DefaultConfig() Config {
	return Config{
		MaxFlows:           4096,
		NewTimeout:         30 * time.Second,
		EstablishedTimeout: 5 * time.Minute,
		ClosingTimeout:     10 * time.Second,
		WheelSlot:          time.Second,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.MaxFlows <= 0 {
		c.MaxFlows = d.MaxFlows
	}
	if c.NewTimeout <= 0 {
		c.NewTimeout = d.NewTimeout
	}
	if c.EstablishedTimeout <= 0 {
		c.EstablishedTimeout = d.EstablishedTimeout
	}
	if c.ClosingTimeout <= 0 {
		c.ClosingTimeout = d.ClosingTimeout
	}
	if c.WheelSlot <= 0 {
		c.WheelSlot = d.WheelSlot
	}
	return c
}

func (c Config) maxTimeout() time.Duration {
	m := c.NewTimeout
	if c.EstablishedTimeout > m {
		m = c.EstablishedTimeout
	}
	if c.ClosingTimeout > m {
		m = c.ClosingTimeout
	}
	return m
}

// Stats are the table's lifetime counters.
type Stats struct {
	// Hits counts lookups that found existing state (in either
	// orientation); Misses counts lookups that did not.
	Hits, Misses uint64
	// Inserts counts flows created; Evictions counts LRU removals under
	// the capacity cap; Expiries counts idle-timeout removals.
	Inserts, Evictions, Expiries uint64
}

// Table is the connection tracking table.
type Table struct {
	clock Clock
	cfg   Config
	flows map[FlowKey]*Flow
	stats Stats

	// Timer wheel: a circular array of buckets, each an intrusive list of
	// flows whose expiry falls in that slot. cursor/cursorTime track the
	// slot currently "due"; Sweep advances them to the clock.
	wheel      []*Flow
	cursor     int
	cursorTime time.Time

	// LRU list: lruHead is least recently used, lruTail most recent.
	lruHead, lruTail *Flow
}

// New creates a table on the given clock.
func New(clock Clock, cfg Config) *Table {
	cfg = cfg.withDefaults()
	slots := int(cfg.maxTimeout()/cfg.WheelSlot) + 2
	return &Table{
		clock:      clock,
		cfg:        cfg,
		flows:      make(map[FlowKey]*Flow),
		wheel:      make([]*Flow, slots),
		cursorTime: clock.Now().Truncate(cfg.WheelSlot),
	}
}

// Len reports the number of live flows.
func (t *Table) Len() int { return len(t.flows) }

// Stats returns a copy of the lifetime counters.
func (t *Table) Stats() Stats { return t.stats }

// Config returns the effective (defaulted) configuration.
func (t *Table) Config() Config { return t.cfg }

// Outbound records a packet sent by the protected (LAN) side, creating or
// refreshing the flow, and returns it. tcpFlags is zero for non-TCP.
func (t *Table) Outbound(key FlowKey, tcpFlags uint8) *Flow {
	t.Sweep()
	now := t.clock.Now()
	f, ok := t.flows[key]
	if ok {
		t.stats.Hits++
	} else if f, ok = t.flows[key.Reverse()]; ok {
		// The LAN side answering a flow the table already tracks (e.g. a
		// pinholed inbound connection): count as reply direction.
		t.stats.Hits++
		f.ReplyPackets++
		if f.State == StateNew {
			f.State = StateEstablished
		}
		t.transitionTCP(f, tcpFlags)
		t.touch(f, now)
		return f
	} else {
		t.stats.Misses++
		f = t.insert(key, now)
	}
	f.OrigPackets++
	t.transitionTCP(f, tcpFlags)
	t.touch(f, now)
	return f
}

// Inbound matches a packet arriving from the WAN side against tracked
// state. key is in the inbound packet's own orientation; a flow matches
// when the table tracks its reverse (the LAN-originated direction) or,
// for flows originated inbound through a pinhole, the key itself. It
// returns the matching flow, refreshed, or nil — Inbound never creates
// state; admitting unsolicited flows is the firewall policy's decision
// (see Track).
func (t *Table) Inbound(key FlowKey, tcpFlags uint8) *Flow {
	t.Sweep()
	now := t.clock.Now()
	f, ok := t.flows[key.Reverse()]
	if ok {
		f.ReplyPackets++
		if f.State == StateNew {
			f.State = StateEstablished
		}
	} else if f, ok = t.flows[key]; ok {
		f.OrigPackets++
	} else {
		t.stats.Misses++
		return nil
	}
	t.stats.Hits++
	t.transitionTCP(f, tcpFlags)
	t.touch(f, now)
	return f
}

// Track inserts state for a flow admitted by policy (e.g. a pinhole
// accept), so its return traffic and follow-up segments match statefully.
// The key keeps the orientation of the admitted packet.
func (t *Table) Track(key FlowKey, tcpFlags uint8) *Flow {
	t.Sweep()
	now := t.clock.Now()
	f, ok := t.flows[key]
	if !ok {
		f = t.insert(key, now)
	}
	f.OrigPackets++
	t.transitionTCP(f, tcpFlags)
	t.touch(f, now)
	return f
}

// Lookup peeks at a flow by exact key without refreshing it or touching
// the counters. It still sweeps, so expired flows are not returned.
func (t *Table) Lookup(key FlowKey) *Flow {
	t.Sweep()
	return t.flows[key]
}

// Sweep expires every flow whose idle deadline has passed on the clock,
// returning how many were removed. Callers never need to call it
// explicitly — every mutation sweeps first — but tests and metrics may.
// A sweep costs at most one wheel revolution plus the live flows, however
// far the clock has moved since the last one.
func (t *Table) Sweep() int {
	now := t.clock.Now()
	elapsed := 0
	if d := now.Sub(t.cursorTime); d >= t.cfg.WheelSlot {
		elapsed = int(d / t.cfg.WheelSlot)
	}
	expired := 0
	// Advance the cursor one slot at a time up to the present, emptying
	// each due bucket. Flows are (re)bucketed on every touch, so a flow in
	// a due bucket either is expired or was re-linked elsewhere already.
	// One revolution visits every bucket, and every deadline lies within
	// one revolution of the last touch, so a longer jump expires every
	// flow in its first revolution and skips the rest.
	steps := min(elapsed, len(t.wheel))
	for i := 0; i < steps; i++ {
		for f := t.wheel[t.cursor]; f != nil; {
			next := f.wheelNext
			if !f.expiry.After(now) {
				t.remove(f)
				t.stats.Expiries++
				expired++
			} else {
				// Deadline is in the future but the flow sits in a stale
				// bucket: re-link.
				t.unlinkWheel(f)
				t.linkWheel(f)
			}
			f = next
		}
		t.advance(1)
	}
	t.advance(elapsed - steps)
	return expired
}

// advance moves the wheel cursor n slots forward.
func (t *Table) advance(n int) {
	t.cursor = (t.cursor + n) % len(t.wheel)
	t.cursorTime = t.cursorTime.Add(time.Duration(n) * t.cfg.WheelSlot)
}

// insert creates a flow, evicting the LRU entry when at capacity.
func (t *Table) insert(key FlowKey, now time.Time) *Flow {
	if len(t.flows) >= t.cfg.MaxFlows {
		if victim := t.lruHead; victim != nil {
			t.remove(victim)
			t.stats.Evictions++
		}
	}
	f := &Flow{Key: key, State: StateNew, Created: now, slot: -1}
	t.flows[key] = f
	t.stats.Inserts++
	return f
}

// transitionTCP applies TCP flag semantics: FIN or RST moves the flow to
// CLOSING regardless of direction.
func (t *Table) transitionTCP(f *Flow, tcpFlags uint8) {
	if f.Key.Proto != packet.IPProtocolTCP {
		return
	}
	if tcpFlags&(packet.TCPFlagFIN|packet.TCPFlagRST) != 0 {
		f.State = StateClosing
	}
}

// touch refreshes the flow's idle deadline and LRU position.
func (t *Table) touch(f *Flow, now time.Time) {
	f.LastSeen = now
	var timeout time.Duration
	switch f.State {
	case StateEstablished:
		timeout = t.cfg.EstablishedTimeout
	case StateClosing:
		timeout = t.cfg.ClosingTimeout
	default:
		timeout = t.cfg.NewTimeout
	}
	f.expiry = now.Add(timeout)
	t.unlinkWheel(f)
	t.linkWheel(f)
	t.unlinkLRU(f)
	t.linkLRU(f)
}

// remove deletes a flow from the map, the wheel, and the LRU list.
func (t *Table) remove(f *Flow) {
	delete(t.flows, f.Key)
	t.unlinkWheel(f)
	t.unlinkLRU(f)
}

func (t *Table) linkWheel(f *Flow) {
	ticks := int((f.expiry.Sub(t.cursorTime) + t.cfg.WheelSlot - 1) / t.cfg.WheelSlot)
	if ticks < 0 {
		ticks = 0
	}
	// The wheel spans the maximum timeout, so ticks < len(wheel) always
	// holds for deadlines produced by touch; clamp defensively anyway.
	if ticks >= len(t.wheel) {
		ticks = len(t.wheel) - 1
	}
	slot := (t.cursor + ticks) % len(t.wheel)
	f.slot = slot
	f.wheelPrev = nil
	f.wheelNext = t.wheel[slot]
	if f.wheelNext != nil {
		f.wheelNext.wheelPrev = f
	}
	t.wheel[slot] = f
}

func (t *Table) unlinkWheel(f *Flow) {
	if f.slot < 0 {
		return
	}
	if f.wheelPrev != nil {
		f.wheelPrev.wheelNext = f.wheelNext
	} else {
		t.wheel[f.slot] = f.wheelNext
	}
	if f.wheelNext != nil {
		f.wheelNext.wheelPrev = f.wheelPrev
	}
	f.wheelPrev, f.wheelNext, f.slot = nil, nil, -1
}

func (t *Table) linkLRU(f *Flow) {
	f.lruNext = nil
	f.lruPrev = t.lruTail
	if t.lruTail != nil {
		t.lruTail.lruNext = f
	}
	t.lruTail = f
	if t.lruHead == nil {
		t.lruHead = f
	}
}

func (t *Table) unlinkLRU(f *Flow) {
	if f.lruPrev != nil {
		f.lruPrev.lruNext = f.lruNext
	} else if t.lruHead == f {
		t.lruHead = f.lruNext
	}
	if f.lruNext != nil {
		f.lruNext.lruPrev = f.lruPrev
	} else if t.lruTail == f {
		t.lruTail = f.lruPrev
	}
	f.lruPrev, f.lruNext = nil, nil
}

// KeyOfV6 extracts a FlowKey from a parsed IPv6 packet, in the packet's
// own orientation, plus the TCP flags when present. ok is false for
// packets without a trackable transport (e.g. NDP-less extension chains).
func KeyOfV6(ip *packet.IPv6, tcp *packet.TCP, udp *packet.UDP, icmp *packet.ICMPv6) (key FlowKey, tcpFlags uint8, ok bool) {
	key.Src, key.Dst = ip.Src, ip.Dst
	switch {
	case tcp != nil:
		key.Proto, key.SrcPort, key.DstPort = packet.IPProtocolTCP, tcp.SrcPort, tcp.DstPort
		return key, tcp.Flags, true
	case udp != nil:
		key.Proto, key.SrcPort, key.DstPort = packet.IPProtocolUDP, udp.SrcPort, udp.DstPort
		return key, 0, true
	case icmp != nil:
		key.Proto = packet.IPProtocolICMPv6
		return key, 0, true
	}
	return key, 0, false
}
