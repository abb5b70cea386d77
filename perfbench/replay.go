package main

import (
	"fmt"
	"io"
	"net/netip"
	"runtime"
	"time"

	"v6lab/internal/addr"
	"v6lab/internal/analysis"
	"v6lab/internal/conntrack"
	"v6lab/internal/device"
	"v6lab/internal/experiment"
	"v6lab/internal/firewall"
	"v6lab/internal/fleet"
	"v6lab/internal/netsim"
	"v6lab/internal/packet"
	"v6lab/internal/pcapio"
	"v6lab/internal/router"
	"v6lab/internal/telemetry"
	"v6lab/internal/world"
)

// The replay ledger. Frames recorded from live runs are re-run through one
// layer at a time, each through its public entry point, so every layer's
// cost per frame is measured alone on the real frame mix.

// ledgerLayers are the replayed layers in ledger order.
var ledgerLayers = []string{
	"netsim.deliver", "packet.decode", "device.receive", "router.receive",
	"cloud.handle", "firewall.track", "analysis.observe", "pcapio.write",
}

// Replay tuning: each layer replays its frames at least minPasses times and
// until it has accumulated minReplay of measured time.
const (
	minPasses = 2
	maxPasses = 40
	minReplay = 300 * time.Millisecond
)

// replayStart is the simulated instant replays run at.
var replayStart = time.Date(2024, 4, 5, 9, 0, 0, 0, time.UTC)

// recording is one experiment run's frames, the population that sent them,
// and the inputs the WAN-side replays derive from those frames.
type recording struct {
	cfg        experiment.Config
	world      *world.World
	recs       []pcapio.Record
	functional map[string]bool
	// wan holds the raw IP packets the router hands the cloud.
	wan [][]byte
	// cross holds the IPv6 packets crossing the router's firewall.
	cross []crossing
}

// crossing is one IPv6 packet crossing the router, parsed ahead of time.
type crossing struct {
	ip      packet.IPv6
	tcp     *packet.TCP
	udp     *packet.UDP
	icmp    *packet.ICMPv6
	inbound bool
}

func newRecording(cfg experiment.Config, w *world.World, res *experiment.RunResult) *recording {
	r := &recording{cfg: cfg, world: w, recs: res.Capture.Records, functional: res.Functional}
	dec := packet.NewDecoder()
	for _, rec := range r.recs {
		p := dec.Parse(rec.Data)
		if p.Err != nil || p.Ethernet == nil {
			continue
		}
		fromLAN := p.Ethernet.Src != router.RouterMAC && p.Ethernet.Dst == router.RouterMAC
		switch {
		case fromLAN && p.IPv4 != nil && internetV4(p):
			r.wan = append(r.wan, p.Ethernet.PayloadData)
		case p.IPv6 != nil:
			out := fromLAN && internetV6(p.IPv6.Dst) && router.GUAPrefix.Contains(p.IPv6.Src) && !ndpOrDHCP(p)
			in := p.Ethernet.Src == router.RouterMAC && internetV6(p.IPv6.Src) && router.GUAPrefix.Contains(p.IPv6.Dst)
			if out {
				r.wan = append(r.wan, p.Ethernet.PayloadData)
			}
			if out || in {
				c := crossing{ip: *p.IPv6, inbound: in}
				if p.TCP != nil {
					t := *p.TCP
					c.tcp = &t
				}
				if p.UDP != nil {
					u := *p.UDP
					c.udp = &u
				}
				if p.ICMPv6 != nil {
					ic := *p.ICMPv6
					c.icmp = &ic
				}
				r.cross = append(r.cross, c)
			}
		}
	}
	return r
}

// internetV4 reports whether the router NATs this LAN packet to the WAN.
func internetV4(p *packet.Packet) bool {
	dst := p.IPv4.Dst
	if p.UDP != nil && p.UDP.DstPort == 67 {
		return false
	}
	return dst != router.RouterV4 && !dst.IsMulticast() && !router.LANv4Prefix.Contains(dst) &&
		dst != netip.AddrFrom4([4]byte{255, 255, 255, 255})
}

// internetV6 reports whether a is a global address outside the home's /64.
func internetV6(a netip.Addr) bool {
	return addr.Classify(a) == addr.KindGUA && !router.GUAPrefix.Contains(a)
}

// ndpOrDHCP reports the packets the router consumes itself.
func ndpOrDHCP(p *packet.Packet) bool {
	if p.ICMPv6 != nil && p.ICMPv6.Type >= packet.ICMPv6TypeRouterSolicit && p.ICMPv6.Type <= packet.ICMPv6TypeNeighborAdvert {
		return true
	}
	return p.UDP != nil && p.UDP.DstPort == 547
}

// profilesOf resolves a home spec against a registry snapshot.
func profilesOf(reg []*device.Profile, spec fleet.HomeSpec) []*device.Profile {
	profiles := make([]*device.Profile, len(spec.DeviceIndexes))
	for j, di := range spec.DeviceIndexes {
		profiles[j] = reg[di]
	}
	return profiles
}

// recordHomes re-runs the given homes' connectivity experiment with every
// frame buffered, for the replay ledger. It returns the recordings and the
// live netsim_frames_switched_total of those runs.
func recordHomes(specs []fleet.HomeSpec) ([]*recording, float64, error) {
	reg := telemetry.NewRegistry()
	devReg := device.Registry()
	scratch := experiment.NewScratch()
	var out []*recording
	for _, spec := range specs {
		ec, ok := experiment.ConfigByID(spec.ConfigID)
		if !ok {
			return nil, 0, fmt.Errorf("home %d: unknown config %q", spec.Index, spec.ConfigID)
		}
		w := world.Build(profilesOf(devReg, spec))
		st := experiment.NewStudyWith(experiment.StudyOptions{
			World: w, Capture: experiment.CaptureFull, Telemetry: reg, Scratch: scratch,
		})
		res, err := st.RunExperiment(ec)
		if err != nil {
			return nil, 0, fmt.Errorf("recording home %d: %w", spec.Index, err)
		}
		out = append(out, newRecording(ec, w, res))
	}
	return out, switched(reg), nil
}

// meter accumulates one layer's measured replay cost.
type meter struct {
	ns, mallocs   float64
	frames, calls float64
	t0            time.Time
	before, after runtime.MemStats
}

func (m *meter) start() {
	runtime.ReadMemStats(&m.before)
	m.t0 = time.Now()
}

func (m *meter) stop(frames, calls int) {
	m.ns += float64(time.Since(m.t0).Nanoseconds())
	runtime.ReadMemStats(&m.after)
	m.mallocs += float64(m.after.Mallocs - m.before.Mallocs)
	m.frames += float64(frames)
	m.calls += float64(calls)
}

// nsPerFrame and allocsPerFrame are per replayed frame.
func (m *meter) nsPerFrame() float64     { return ratio(m.ns, m.frames) }
func (m *meter) allocsPerFrame() float64 { return ratio(m.mallocs, m.frames) }

// replayer replays one recording through one layer into a meter.
type replayer func(m *meter, r *recording) error

// ledger is the replay result: one meter per layer, plus the Capture.Add
// half of pcapio.write, which is all a live buffered run pays.
type ledger struct {
	layers     map[string]*meter
	captureAdd *meter
	frames     float64 // frames in one pass over the recordings
}

// fanout is HandleFrame calls per delivered frame in the netsim replay.
func (l *ledger) fanout() float64 {
	m := l.layers["netsim.deliver"]
	return ratio(m.calls, m.frames)
}

// replayLedger replays every recording through every layer.
func replayLedger(recs []*recording) (*ledger, error) {
	replayers := map[string]replayer{
		"netsim.deliver":   replayNetsim,
		"packet.decode":    replayDecode,
		"device.receive":   replayDevices,
		"router.receive":   replayRouter,
		"cloud.handle":     replayCloud,
		"firewall.track":   replayFirewall,
		"analysis.observe": replayAnalysis,
		"pcapio.write":     replayPcapWrite,
	}
	l := &ledger{layers: map[string]*meter{}}
	for _, r := range recs {
		l.frames += float64(len(r.recs))
	}
	run := func(fn replayer) (*meter, error) {
		m := &meter{}
		for pass := 0; pass < minPasses || (m.ns < float64(minReplay) && pass < maxPasses); pass++ {
			for _, r := range recs {
				if err := fn(m, r); err != nil {
					return nil, err
				}
			}
		}
		return m, nil
	}
	for _, name := range ledgerLayers {
		m, err := run(replayers[name])
		if err != nil {
			return nil, fmt.Errorf("%s replay: %w", name, err)
		}
		l.layers[name] = m
	}
	m, err := run(replayCaptureAdd)
	if err != nil {
		return nil, fmt.Errorf("pcapio capture replay: %w", err)
	}
	l.captureAdd = m
	return l, nil
}

func srcMAC(f []byte) (m packet.MAC) {
	if len(f) >= 12 {
		copy(m[:], f[6:12])
	}
	return m
}

func dstMAC(f []byte) (m packet.MAC) {
	if len(f) >= 6 {
		copy(m[:], f[:6])
	}
	return m
}

// countingHost is a netsim host that only counts deliveries.
type countingHost struct{ n int }

func (h *countingHost) HandleFrame([]byte) { h.n++ }

// replayNetsim sends every frame from its source's port through a fresh
// switch whose hosts only count: the switch's own cost and fan-out.
func replayNetsim(m *meter, r *recording) error {
	net := netsim.NewNetwork(netsim.NewClock(replayStart))
	sink := &countingHost{}
	ports := map[packet.MAC]*netsim.Port{router.RouterMAC: net.Attach(sink, router.RouterMAC)}
	for i, p := range r.world.Profiles {
		mac := device.MACFor(p, i)
		ports[mac] = net.Attach(sink, mac)
	}
	from := make([]*netsim.Port, len(r.recs))
	for i, rec := range r.recs {
		src := srcMAC(rec.Data)
		if ports[src] == nil {
			ports[src] = net.Attach(sink, src)
		}
		from[i] = ports[src]
	}
	m.start()
	for i, rec := range r.recs {
		from[i].Send(rec.Data)
	}
	n, err := net.Run(len(r.recs) + 1)
	m.stop(len(r.recs), sink.n)
	if err != nil {
		return err
	}
	if n != len(r.recs) {
		return fmt.Errorf("%s: switch delivered %d frames, capture holds %d", r.cfg.ID, n, len(r.recs))
	}
	return nil
}

// replayDecode parses every frame once.
func replayDecode(m *meter, r *recording) error {
	dec := packet.NewDecoder()
	bad := 0
	m.start()
	for _, rec := range r.recs {
		if dec.Parse(rec.Data).Err != nil {
			bad++
		}
	}
	m.stop(len(r.recs), len(r.recs))
	if bad > 0 {
		return fmt.Errorf("%s: %d of %d frames failed to decode", r.cfg.ID, bad, len(r.recs))
	}
	return nil
}

// replayDevices hands every frame to each device stack the switch would
// reach, on fresh stacks reset into the run's configuration.
func replayDevices(m *meter, r *recording) error {
	net := netsim.NewNetwork(netsim.NewClock(replayStart))
	stacks := make([]*device.Stack, len(r.world.Profiles))
	byMAC := make(map[packet.MAC]*device.Stack, len(stacks))
	for i, p := range r.world.Profiles {
		s := device.NewStack(p, r.world.Plans[i], i, r.world.Prefixes)
		s.Attach(net)
		s.Reset(r.cfg.Mode, r.cfg.V6Seq)
		stacks[i] = s
		byMAC[s.MAC] = s
	}
	type hop struct {
		flood    bool
		src, dst *device.Stack
	}
	hops := make([]hop, len(r.recs))
	for i, rec := range r.recs {
		d := dstMAC(rec.Data)
		hops[i] = hop{flood: d.IsMulticast(), src: byMAC[srcMAC(rec.Data)], dst: byMAC[d]}
	}
	calls := 0
	m.start()
	for i, rec := range r.recs {
		h := hops[i]
		if h.flood {
			for _, s := range stacks {
				if s != h.src {
					s.HandleFrame(rec.Data)
					calls++
				}
			}
		} else if h.dst != nil && h.dst != h.src {
			h.dst.HandleFrame(rec.Data)
			calls++
		}
	}
	m.stop(len(r.recs), calls)
	return nil
}

// replayRouter hands the router every frame the switch would deliver to
// it; forwarding includes its cloud and firewall work.
func replayRouter(m *meter, r *recording) error {
	net := netsim.NewNetwork(netsim.NewClock(replayStart))
	rt := router.New(r.cfg.Router, r.world.Cloud.Clone())
	rt.Attach(net)
	reach := make([]bool, len(r.recs))
	for i, rec := range r.recs {
		d := dstMAC(rec.Data)
		reach[i] = srcMAC(rec.Data) != router.RouterMAC && (d == router.RouterMAC || d.IsMulticast())
	}
	calls := 0
	m.start()
	for i, rec := range r.recs {
		if reach[i] {
			rt.HandleFrame(rec.Data)
			calls++
		}
	}
	m.stop(len(r.recs), calls)
	return nil
}

// replayCloud hands the cloud every packet the router forwards to it.
func replayCloud(m *meter, r *recording) error {
	cl := r.world.Cloud.Clone()
	m.start()
	for _, pkt := range r.wan {
		cl.HandleIP(pkt)
	}
	m.stop(len(r.recs), len(r.wan))
	return nil
}

// replayFirewall tracks every IPv6 packet crossing the router.
func replayFirewall(m *meter, r *recording) error {
	fw := firewall.New(firewall.Open{}, netsim.NewClock(replayStart), conntrack.DefaultConfig())
	m.start()
	for i := range r.cross {
		c := &r.cross[i]
		key, flags, ok := conntrack.KeyOfV6(&c.ip, c.tcp, c.udp, c.icmp)
		if !ok {
			continue
		}
		if c.inbound {
			fw.Inbound(key, flags)
		} else {
			fw.Outbound(key, flags)
		}
	}
	m.stop(len(r.recs), len(r.cross))
	return nil
}

// replayAnalysis streams every frame through a fresh Observer.
func replayAnalysis(m *meter, r *recording) error {
	o := analysis.NewObserver(r.cfg.ID, r.cfg.Mode, r.world.MACToDevice)
	m.start()
	for _, rec := range r.recs {
		o.Add(rec.Time, rec.Data)
	}
	o.Finalize(r.functional)
	m.stop(len(r.recs), len(r.recs))
	return nil
}

// replayCaptureAdd buffers every frame into a fresh Capture.
func replayCaptureAdd(m *meter, r *recording) error {
	c := &pcapio.Capture{}
	m.start()
	for _, rec := range r.recs {
		c.Add(rec.Time, rec.Data)
	}
	m.stop(len(r.recs), len(r.recs))
	return nil
}

// replayPcapWrite buffers every frame and writes the pcap to io.Discard.
func replayPcapWrite(m *meter, r *recording) error {
	c := &pcapio.Capture{}
	w := pcapio.NewWriter(io.Discard)
	m.start()
	for _, rec := range r.recs {
		c.Add(rec.Time, rec.Data)
	}
	var err error
	for _, rec := range c.Records {
		if err = w.WriteRecord(rec); err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	m.stop(len(r.recs), len(r.recs))
	return err
}
