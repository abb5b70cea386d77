// Package netsim provides the deterministic, single-threaded layer-2
// network the testbed runs on: a virtual switch to which hosts (the 93 IoT
// devices, the router, the scanner) attach, a simulated clock, and capture
// taps that record every frame the way tcpdump on the paper's router does.
//
// Frames are delivered synchronously from a FIFO queue; handlers may inject
// more frames, and Run drains the queue until the network is quiescent.
// Determinism (fixed attach order, fixed queue order, simulated time) makes
// every study run byte-for-byte reproducible.
package netsim

import (
	"fmt"
	"time"

	"v6lab/internal/packet"
	"v6lab/internal/telemetry"
)

// Clock is the simulated wall clock shared by the whole testbed.
type Clock struct {
	now time.Time
}

// NewClock starts a clock at the given instant.
func NewClock(start time.Time) *Clock { return &Clock{now: start} }

// Now returns the current simulated instant.
func (c *Clock) Now() time.Time { return c.now }

// Advance moves the clock forward; negative durations are ignored.
func (c *Clock) Advance(d time.Duration) {
	if d > 0 {
		c.now = c.now.Add(d)
	}
}

// Reset rewinds the clock to the given instant, for pooled environments
// that restart runs from a common base time.
func (c *Clock) Reset(t time.Time) { c.now = t }

// AdvanceTo moves the clock forward to the given instant; instants at or
// before the current one are ignored, so the clock stays monotonic. The
// event-scheduled timeline engine uses it to jump from event to event:
// frame deliveries between events advance the clock by per-frame delays,
// so the next event time may already be in the past when it pops.
func (c *Clock) AdvanceTo(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

// Tap consumes every frame the switch delivers, in delivery order. A
// pcapio.Capture is the buffering implementation (record every frame for
// later re-parsing); the analysis package's streaming Observer is the
// incremental one (parse at delivery, retain only extracted values). Tap
// implementations must not retain data past the call: the bytes live in
// the switch's frame arena and are recycled on Reset.
type Tap interface {
	Add(t time.Time, data []byte)
}

// Host is anything attached to the network that can receive frames.
type Host interface {
	// HandleFrame processes one inbound frame. It may call Port.Send to
	// transmit in response.
	HandleFrame(frame []byte)
}

// Verdict is an Impairment's decision about one frame at delivery time.
type Verdict int

// The possible frame fates.
const (
	// Deliver hands the frame to its receivers normally.
	Deliver Verdict = iota
	// Drop loses the frame in the air: no tap, no receivers, no clock
	// advance — as if the radio never carried it.
	Drop
	// Duplicate delivers the frame now and once more later (the copy is
	// re-enqueued at the back of the queue).
	Duplicate
	// Defer postpones the frame to the back of the queue, reordering it
	// past everything currently queued. A deferred frame is delivered
	// unconditionally on its second pass, guaranteeing progress.
	Defer
)

// Impairment decides the fate of each frame the switch is about to
// deliver. Implementations must be deterministic in call order; the
// switch consults it exactly once per originally-queued frame.
type Impairment interface {
	Verdict(frame []byte) Verdict
}

// Port is a host's attachment point to the network.
type Port struct {
	net  *Network
	host Host
	// MAC is the port's hardware address.
	MAC packet.MAC
	// Promiscuous ports receive every frame regardless of destination.
	Promiscuous bool
	index       int
}

// Send transmits a frame from this port onto the network.
func (p *Port) Send(frame []byte) { p.net.enqueue(p.index, frame) }

// Network is a single L2 broadcast domain with MAC-based delivery.
type Network struct {
	Clock *Clock
	ports []*Port
	taps  []Tap
	// queue[qhead:] holds the pending frames; draining advances qhead
	// instead of re-slicing so the backing array survives Reset.
	queue []queued
	qhead int
	// byMAC indexes ports by hardware address for O(1) unicast delivery.
	// dupMAC flips when two live ports share a MAC, forcing the delivery
	// loop back to the exhaustive scan so both still receive.
	byMAC  map[packet.MAC]*Port
	dupMAC bool
	// PerFrameDelay is how far the clock advances per delivered frame.
	PerFrameDelay time.Duration
	// delivered counts frames delivered over the network's lifetime.
	delivered int
	// imp, when set, impairs frames at delivery time (loss, duplication,
	// reordering). dropped counts frames it swallowed.
	imp     Impairment
	dropped int
	// arena pools the per-frame copies enqueue makes: one chunk
	// allocation per 64 KiB of traffic instead of one per frame. Chunks
	// are recycled by Reset, so queued frames (and any sub-slices handlers
	// retain, e.g. a parsed DUID) stay valid until then.
	arena packet.Arena
	// metrics, when set, counts switch activity into pre-resolved
	// telemetry instruments (plain atomic adds, no allocation).
	metrics *Metrics
}

// Metrics holds the switch's hot-path instruments. They are resolved once
// at registration so the frame loop does nothing but atomic additions —
// additions commute, keeping snapshots identical across worker counts.
type Metrics struct {
	// Switched counts frames delivered to receivers.
	Switched *telemetry.Counter
	// Dropped counts frames an impairment swallowed.
	Dropped *telemetry.Counter
	// Impaired counts non-Deliver verdicts (drop, defer, duplicate).
	Impaired *telemetry.Counter
	// ArenaBytes counts bytes copied into the frame arena by enqueue.
	ArenaBytes *telemetry.Counter
	// FrameBytes is the per-delivered-frame size distribution.
	FrameBytes *telemetry.Histogram
}

// NewMetrics registers (or re-binds) the switch instruments on r.
func NewMetrics(r *telemetry.Registry) *Metrics {
	return &Metrics{
		Switched:   r.Counter("netsim", "frames_switched_total", "Frames delivered by the L2 switch."),
		Dropped:    r.Counter("netsim", "frames_dropped_total", "Frames swallowed by impairment verdicts."),
		Impaired:   r.Counter("netsim", "frames_impaired_total", "Frames given a non-deliver impairment verdict (drop, defer, duplicate)."),
		ArenaBytes: r.Counter("netsim", "arena_bytes_total", "Bytes copied into the zero-copy frame arena."),
		FrameBytes: r.Histogram("netsim", "frame_bytes", "Per-delivered-frame sizes in bytes.", []uint64{64, 128, 256, 512, 1280, 1500}),
	}
}

type queued struct {
	from  int
	frame []byte
	// deferred marks a frame already reordered or duplicated once; it is
	// exempt from further impairment so the queue always drains.
	deferred bool
}

// NewNetwork creates an empty network on the given clock.
func NewNetwork(clock *Clock) *Network {
	return &Network{Clock: clock, PerFrameDelay: 200 * time.Microsecond}
}

// Attach connects a host with the given MAC and returns its port.
func (n *Network) Attach(h Host, mac packet.MAC) *Port {
	p := &Port{net: n, host: h, MAC: mac, index: len(n.ports)}
	n.ports = append(n.ports, p)
	if n.byMAC == nil {
		n.byMAC = make(map[packet.MAC]*Port)
	}
	if _, taken := n.byMAC[mac]; taken {
		n.dupMAC = true
	}
	n.byMAC[mac] = p
	return p
}

// Reset returns the network to its just-constructed state — no ports, taps,
// queued frames, impairment, or counters — while keeping the queue's and
// frame arena's capacity, so a pooled network reaches a steady state where
// running a full home allocates nothing in the switch. All frames handed to
// handlers before the Reset are invalidated (their bytes will be reused);
// hosts from the previous run must be discarded or Reset themselves. A
// non-nil clock replaces the network's clock; metrics and PerFrameDelay are
// retained.
func (n *Network) Reset(clock *Clock) {
	n.ports = n.ports[:0]
	n.taps = n.taps[:0]
	n.queue = n.queue[:0]
	n.qhead = 0
	clear(n.byMAC)
	n.dupMAC = false
	n.delivered = 0
	n.dropped = 0
	n.imp = nil
	n.arena.Reset()
	if clock != nil {
		n.Clock = clock
	}
}

// AddTap registers a sink that sees every frame on the wire.
func (n *Network) AddTap(tap Tap) { n.taps = append(n.taps, tap) }

// RemoveTaps detaches every tap: later frames are still delivered, but no
// sink sees them.
func (n *Network) RemoveTaps() { n.taps = n.taps[:0] }

// Delivered reports the total number of frames delivered so far.
func (n *Network) Delivered() int { return n.delivered }

// SetImpairment installs a frame-fate policy on the switch; nil restores
// the perfect network.
func (n *Network) SetImpairment(imp Impairment) { n.imp = imp }

// Dropped reports how many frames the installed impairment swallowed.
func (n *Network) Dropped() int { return n.dropped }

// SetMetrics installs pre-resolved telemetry instruments on the switch;
// nil disables instrumentation (the default).
func (n *Network) SetMetrics(m *Metrics) { n.metrics = m }

func (n *Network) enqueue(from int, frame []byte) {
	// Copy: senders reuse their serialization buffers. The copy lands in
	// the network's frame arena, not a fresh heap slice per frame.
	n.queue = append(n.queue, queued{from: from, frame: n.arena.CopyIn(frame)})
	if n.metrics != nil {
		n.metrics.ArenaBytes.Add(uint64(len(frame)))
	}
}

// Run delivers queued frames (and any frames handlers inject) until the
// network is quiescent or maxFrames deliveries have occurred. It returns
// the number of frames delivered and an error if the budget was exhausted,
// which in practice means a forwarding loop.
func (n *Network) Run(maxFrames int) (int, error) {
	// Unicast frames go straight to their destination port via byMAC; the
	// exhaustive attach-order scan remains for promiscuous listeners and
	// (defensively) duplicate MACs, where per-port checks are the point.
	scan := n.dupMAC
	for _, p := range n.ports {
		if p.Promiscuous {
			scan = true
		}
	}
	count := 0
	for n.qhead < len(n.queue) {
		if count >= maxFrames {
			return count, fmt.Errorf("netsim: frame budget %d exhausted (forwarding loop?)", maxFrames)
		}
		q := n.queue[n.qhead]
		n.qhead++
		count++
		if n.imp != nil && !q.deferred {
			switch n.imp.Verdict(q.frame) {
			case Drop:
				n.dropped++
				if n.metrics != nil {
					n.metrics.Dropped.Inc()
					n.metrics.Impaired.Inc()
				}
				continue
			case Defer:
				q.deferred = true
				n.queue = append(n.queue, q)
				if n.metrics != nil {
					n.metrics.Impaired.Inc()
				}
				continue
			case Duplicate:
				dup := queued{from: q.from, frame: q.frame, deferred: true}
				n.queue = append(n.queue, dup)
				if n.metrics != nil {
					n.metrics.Impaired.Inc()
				}
			}
		}
		n.delivered++
		n.Clock.Advance(n.PerFrameDelay)
		if n.metrics != nil {
			n.metrics.Switched.Inc()
			n.metrics.FrameBytes.Observe(uint64(len(q.frame)))
		}
		for _, tap := range n.taps {
			tap.Add(n.Clock.Now(), q.frame)
		}
		dst := frameDst(q.frame)
		switch {
		case scan:
			for _, p := range n.ports {
				if p.index == q.from {
					continue
				}
				if p.Promiscuous || dst == p.MAC || dst.IsMulticast() || dst == packet.BroadcastMAC {
					p.host.HandleFrame(q.frame)
				}
			}
		case dst.IsMulticast() || dst == packet.BroadcastMAC:
			for _, p := range n.ports {
				if p.index != q.from {
					p.host.HandleFrame(q.frame)
				}
			}
		default:
			if p := n.byMAC[dst]; p != nil && p.index != q.from {
				p.host.HandleFrame(q.frame)
			}
		}
	}
	if n.qhead == len(n.queue) {
		n.queue = n.queue[:0]
		n.qhead = 0
	}
	return count, nil
}

func frameDst(frame []byte) packet.MAC {
	var dst packet.MAC
	if len(frame) >= 6 {
		copy(dst[:], frame[:6])
	}
	return dst
}
