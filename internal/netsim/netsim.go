// Package netsim provides the deterministic, single-threaded layer-2
// network the testbed runs on: a virtual switch to which hosts (the 93 IoT
// devices, the router, the scanner) attach, a simulated clock, and capture
// taps that record every frame the way tcpdump on the paper's router does.
//
// Frames are delivered synchronously from a FIFO queue; handlers may inject
// more frames, and Run drains the queue until the network is quiescent.
// Hosts build each frame they send in place in the switch's frame arena
// (Port.Transmit), so a frame's bytes are written once, on the way into
// the queue, and read where they lie by every receiver and tap.
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

// Tap consumes every frame the switch delivers, in delivery order. The
// analysis package's streaming Observer is the analysis tap (parse at
// delivery, retain only extracted values); a pcapio.Capture is the
// buffering one, which pcap artifacts are written from. The frame, and
// the decoded view Network.Decode returns for it, are read-only and live
// only for the call: the bytes sit in the switch's frame arena, which is
// recycled as soon as Run drains the queue, and the view is shared with
// every other tap and host the frame reaches.
type Tap interface {
	Add(t time.Time, data []byte)
}

// Host is anything attached to the network that can receive frames.
type Host interface {
	// HandleFrame processes one inbound frame. It decodes the frame
	// through Port.Decode, which walks it once per delivery for every tap
	// and host it reaches, and may call Port.Transmit (or Port.Send) to
	// respond; the new frame is built in the arena beside the one being
	// handled, which stays intact. The frame and its decoded view are
	// read-only and live only for the delivery: a host must not write
	// either, and one that needs their contents later must copy them.
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

// Transmit builds the frame layers describe (layers[0] outermost, as in
// packet.SerializeLayers) in place in the switch's frame arena and queues
// it from this port. The layers may reference any bytes, including a
// frame being delivered; they are read once, while the frame is built. A
// serialization error queues nothing.
func (p *Port) Transmit(layers ...packet.SerializableLayer) error {
	n := p.net
	frame, err := n.arena.Serialize(layers...)
	if err != nil {
		return err
	}
	n.queue = append(n.queue, queued{from: p.index, frame: frame})
	if n.metrics != nil {
		n.metrics.ArenaBytes.Add(uint64(len(frame)))
	}
	return nil
}

// Decode returns the decoded view of frame; see Network.Decode.
func (p *Port) Decode(frame []byte) *packet.Packet { return p.net.Decode(frame) }

// Send transmits a copy of a ready-made frame from this port: a Transmit
// of the frame as one Raw layer, so the caller may reuse frame as soon as
// Send returns.
func (p *Port) Send(frame []byte) {
	n := p.net
	n.send = frame
	p.Transmit(&n.send) // a Raw layer cannot fail
	n.send = nil
}

// Network is a single L2 broadcast domain with MAC-based delivery.
type Network struct {
	Clock *Clock
	ports []*Port
	taps  []Tap
	// queue[qhead:] holds the pending frames; draining advances qhead
	// instead of re-slicing so the backing array survives Reset.
	queue []queued
	qhead int
	// byMAC indexes ports by hardware address, packed by macKey, for
	// O(1) unicast delivery. dupMAC flips when two live ports share a
	// MAC, forcing the delivery loop back to the exhaustive scan so both
	// still receive.
	byMAC  map[uint64]*Port
	dupMAC bool
	// PerFrameDelay is how far the clock advances per delivered frame.
	PerFrameDelay time.Duration
	// delivered counts frames delivered over the network's lifetime.
	delivered int
	// imp, when set, impairs frames at delivery time (loss, duplication,
	// reordering). dropped counts frames it swallowed.
	imp     Impairment
	dropped int
	// arena holds every queued frame, built in it by Transmit: one chunk
	// allocation per MiB of traffic instead of one per frame. It lives
	// for one drain: Run recycles it whenever the queue empties, so a
	// delivered frame is valid only until its Run returns, and the arena
	// is bounded by the largest burst rather than by the run's horizon.
	arena packet.Arena
	// send is the Raw layer Send transmits a ready-made frame through.
	send packet.Raw
	// cur is the frame Run is delivering (nil outside a delivery) and
	// view its decoded form, walked by dec for the first tap or host
	// that asks (nil until then). fresh walks any other slice.
	cur        []byte
	view       *packet.Packet
	dec, fresh packet.Decoder
	// check verifies, under the arenapoison build tag, that no tap or
	// host writes into a frame or its decoded view.
	check frameCheck
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
	// ArenaBytes counts the bytes of every frame built in the arena.
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
		ArenaBytes: r.Counter("netsim", "arena_bytes_total", "Bytes of the frames built in the switch's frame arena."),
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
		n.byMAC = make(map[uint64]*Port)
	}
	if _, taken := n.byMAC[macKey(mac)]; taken {
		n.dupMAC = true
	}
	n.byMAC[macKey(mac)] = p
	return p
}

// macKey packs a MAC into the low 48 bits of a uint64, a map key the
// runtime hashes without the variable-length path a [6]byte takes.
func macKey(m packet.MAC) uint64 {
	return uint64(m[0])<<40 | uint64(m[1])<<32 | uint64(m[2])<<24 | uint64(m[3])<<16 | uint64(m[4])<<8 | uint64(m[5])
}

// Reset returns the network to its just-constructed state — no ports, taps,
// queued frames, impairment, or counters — while keeping the queue's and
// frame arena's capacity, so a pooled network reaches a steady state where
// running a full home allocates nothing in the switch. Frames still queued
// (a Run that exhausted its budget leaves some) are discarded; hosts from
// the previous run must be discarded or Reset themselves. A non-nil clock
// replaces the network's clock; metrics and PerFrameDelay are retained.
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

// Decode returns the decoded view of frame. The frame Run is delivering
// is walked at most once, by the first tap or host that asks; every later
// caller in the same delivery gets the same *packet.Packet, and a host
// that returns before decoding costs nothing. Any other slice (a frame
// handed to HandleFrame outside Run, say) is walked fresh, never touching
// the shared view, and its result is valid until the next such call. The
// view is read-only and lives only for the delivery, like the frame.
func (n *Network) Decode(frame []byte) *packet.Packet {
	if len(frame) == 0 || len(frame) != len(n.cur) || &frame[0] != &n.cur[0] {
		return n.fresh.Parse(frame)
	}
	if n.view == nil {
		n.view = n.dec.Parse(frame)
	}
	return n.view
}

// SetMetrics installs pre-resolved telemetry instruments on the switch;
// nil disables instrumentation (the default).
func (n *Network) SetMetrics(m *Metrics) { n.metrics = m }

// Run delivers queued frames (and any frames handlers inject) until the
// network is quiescent or maxFrames deliveries have occurred. It returns
// the number of frames delivered and an error if the budget was exhausted,
// which in practice means a forwarding loop. Once the queue drains, the
// frame arena is recycled: every frame Run delivered is invalid after it
// returns. A Run that exhausts its budget keeps the arena, since frames
// are still queued in it.
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
			n.cur, n.view = nil, nil
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
		n.cur, n.view = q.frame, nil
		n.checkBegin(q.frame)
		for _, tap := range n.taps {
			tap.Add(n.Clock.Now(), q.frame)
			n.checkTap(q.frame, tap)
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
					n.checkHost(q.frame, p)
				}
			}
		case dst.IsMulticast() || dst == packet.BroadcastMAC:
			for _, p := range n.ports {
				if p.index != q.from {
					p.host.HandleFrame(q.frame)
					n.checkHost(q.frame, p)
				}
			}
		default:
			if p := n.byMAC[macKey(dst)]; p != nil && p.index != q.from {
				p.host.HandleFrame(q.frame)
				n.checkHost(q.frame, p)
			}
		}
		n.checkDelivery(q.frame, q.from)
	}
	n.cur, n.view = nil, nil
	n.queue = n.queue[:0]
	n.qhead = 0
	n.arena.Reset()
	return count, nil
}

func frameDst(frame []byte) packet.MAC {
	var dst packet.MAC
	if len(frame) >= 6 {
		copy(dst[:], frame[:6])
	}
	return dst
}
