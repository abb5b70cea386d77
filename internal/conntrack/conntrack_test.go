package conntrack

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"v6lab/internal/netsim"
	"v6lab/internal/packet"
)

var (
	devAddr   = netip.MustParseAddr("2001:470:8:100::10")
	cloudAddr = netip.MustParseAddr("2606:4700:10::1")
	scanAddr  = netip.MustParseAddr("2001:db8::bad")
)

func tcpKey(src, dst netip.Addr, sport, dport uint16) FlowKey {
	return FlowKey{Proto: packet.IPProtocolTCP, Src: src, Dst: dst, SrcPort: sport, DstPort: dport}
}

func udpKey(src, dst netip.Addr, sport, dport uint16) FlowKey {
	return FlowKey{Proto: packet.IPProtocolUDP, Src: src, Dst: dst, SrcPort: sport, DstPort: dport}
}

func newTable(cfg Config) (*netsim.Clock, *Table) {
	clock := netsim.NewClock(time.Date(2024, 4, 5, 9, 0, 0, 0, time.UTC))
	return clock, New(clock, cfg)
}

func TestReverse(t *testing.T) {
	k := tcpKey(devAddr, cloudAddr, 40000, 443)
	r := k.Reverse()
	if r.Src != cloudAddr || r.Dst != devAddr || r.SrcPort != 443 || r.DstPort != 40000 {
		t.Fatalf("reverse: %v", r)
	}
	if r.Reverse() != k {
		t.Fatal("double reverse is not identity")
	}
}

func TestStateTransitions(t *testing.T) {
	tests := []struct {
		name string
		run  func(tb *Table) *Flow
		want State
	}{
		{
			name: "outbound SYN is NEW",
			run: func(tb *Table) *Flow {
				return tb.Outbound(tcpKey(devAddr, cloudAddr, 40000, 443), packet.TCPFlagSYN)
			},
			want: StateNew,
		},
		{
			name: "reply promotes to ESTABLISHED",
			run: func(tb *Table) *Flow {
				k := tcpKey(devAddr, cloudAddr, 40000, 443)
				tb.Outbound(k, packet.TCPFlagSYN)
				return tb.Inbound(k.Reverse(), packet.TCPFlagSYN|packet.TCPFlagACK)
			},
			want: StateEstablished,
		},
		{
			name: "UDP reply promotes to ESTABLISHED",
			run: func(tb *Table) *Flow {
				k := udpKey(devAddr, cloudAddr, 5353, 53)
				tb.Outbound(k, 0)
				return tb.Inbound(k.Reverse(), 0)
			},
			want: StateEstablished,
		},
		{
			name: "ICMPv6 echo pairs without ports",
			run: func(tb *Table) *Flow {
				k := FlowKey{Proto: packet.IPProtocolICMPv6, Src: devAddr, Dst: cloudAddr}
				tb.Outbound(k, 0)
				return tb.Inbound(k.Reverse(), 0)
			},
			want: StateEstablished,
		},
		{
			name: "outbound FIN moves to CLOSING",
			run: func(tb *Table) *Flow {
				k := tcpKey(devAddr, cloudAddr, 40000, 443)
				tb.Outbound(k, packet.TCPFlagSYN)
				tb.Inbound(k.Reverse(), packet.TCPFlagSYN|packet.TCPFlagACK)
				return tb.Outbound(k, packet.TCPFlagFIN|packet.TCPFlagACK)
			},
			want: StateClosing,
		},
		{
			name: "inbound RST moves to CLOSING",
			run: func(tb *Table) *Flow {
				k := tcpKey(devAddr, cloudAddr, 40000, 443)
				tb.Outbound(k, packet.TCPFlagSYN)
				return tb.Inbound(k.Reverse(), packet.TCPFlagRST|packet.TCPFlagACK)
			},
			want: StateClosing,
		},
		{
			name: "UDP ignores TCP flag bits",
			run: func(tb *Table) *Flow {
				k := udpKey(devAddr, cloudAddr, 5353, 53)
				return tb.Outbound(k, packet.TCPFlagRST)
			},
			want: StateNew,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, tb := newTable(Config{})
			f := tc.run(tb)
			if f == nil {
				t.Fatal("no flow")
			}
			if f.State != tc.want {
				t.Fatalf("state = %v, want %v", f.State, tc.want)
			}
		})
	}
}

func TestInboundNeverCreatesState(t *testing.T) {
	_, tb := newTable(Config{})
	if f := tb.Inbound(tcpKey(scanAddr, devAddr, 55555, 8080), packet.TCPFlagSYN); f != nil {
		t.Fatalf("unsolicited inbound matched: %+v", f)
	}
	if tb.Len() != 0 {
		t.Fatalf("inbound inserted state: len=%d", tb.Len())
	}
	st := tb.Stats()
	if st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTrackAdmitsPinholedFlow(t *testing.T) {
	_, tb := newTable(Config{})
	k := tcpKey(scanAddr, devAddr, 55555, 8080)
	tb.Track(k, packet.TCPFlagSYN)
	// The device's SYN-ACK travels outbound; it must match the tracked
	// inbound-originated flow rather than opening a second one.
	f := tb.Outbound(k.Reverse(), packet.TCPFlagSYN|packet.TCPFlagACK)
	if f == nil || f.Key != k {
		t.Fatalf("outbound reply did not match tracked flow: %+v", f)
	}
	if f.State != StateEstablished {
		t.Fatalf("state = %v, want ESTABLISHED", f.State)
	}
	if tb.Len() != 1 {
		t.Fatalf("len = %d, want 1", tb.Len())
	}
}

func TestIdleExpiry(t *testing.T) {
	clock, tb := newTable(Config{NewTimeout: 10 * time.Second, EstablishedTimeout: time.Minute})
	kNew := tcpKey(devAddr, cloudAddr, 40000, 443)
	kEst := tcpKey(devAddr, cloudAddr, 40001, 443)
	tb.Outbound(kNew, packet.TCPFlagSYN)
	tb.Outbound(kEst, packet.TCPFlagSYN)
	tb.Inbound(kEst.Reverse(), packet.TCPFlagSYN|packet.TCPFlagACK)

	clock.Advance(15 * time.Second)
	if n := tb.Sweep(); n != 1 {
		t.Fatalf("swept %d flows, want 1 (the NEW one)", n)
	}
	if tb.Lookup(kNew) != nil {
		t.Fatal("NEW flow survived its timeout")
	}
	if tb.Lookup(kEst) == nil {
		t.Fatal("ESTABLISHED flow expired prematurely")
	}

	clock.Advance(time.Minute)
	tb.Sweep()
	if tb.Lookup(kEst) != nil {
		t.Fatal("ESTABLISHED flow survived its timeout")
	}
	if st := tb.Stats(); st.Expiries != 2 {
		t.Fatalf("expiries = %d, want 2", st.Expiries)
	}
	if tb.Len() != 0 {
		t.Fatalf("len = %d, want 0", tb.Len())
	}
}

func TestTouchRefreshesDeadline(t *testing.T) {
	clock, tb := newTable(Config{NewTimeout: 10 * time.Second})
	k := tcpKey(devAddr, cloudAddr, 40000, 443)
	tb.Outbound(k, packet.TCPFlagSYN)
	// Keep the flow warm past several would-be deadlines.
	for i := 0; i < 5; i++ {
		clock.Advance(8 * time.Second)
		tb.Outbound(k, 0)
	}
	if tb.Lookup(k) == nil {
		t.Fatal("refreshed flow expired")
	}
	if st := tb.Stats(); st.Expiries != 0 {
		t.Fatalf("expiries = %d, want 0", st.Expiries)
	}
}

func TestClosingExpiresFast(t *testing.T) {
	clock, tb := newTable(Config{EstablishedTimeout: time.Hour, ClosingTimeout: 5 * time.Second})
	k := tcpKey(devAddr, cloudAddr, 40000, 443)
	tb.Outbound(k, packet.TCPFlagSYN)
	tb.Inbound(k.Reverse(), packet.TCPFlagSYN|packet.TCPFlagACK)
	tb.Outbound(k, packet.TCPFlagFIN|packet.TCPFlagACK)
	clock.Advance(10 * time.Second)
	tb.Sweep()
	if tb.Lookup(k) != nil {
		t.Fatal("CLOSING flow outlived its short timeout")
	}
}

func TestLRUEviction(t *testing.T) {
	_, tb := newTable(Config{MaxFlows: 3})
	keys := make([]FlowKey, 4)
	for i := range keys {
		keys[i] = tcpKey(devAddr, cloudAddr, uint16(40000+i), 443)
	}
	tb.Outbound(keys[0], packet.TCPFlagSYN)
	tb.Outbound(keys[1], packet.TCPFlagSYN)
	tb.Outbound(keys[2], packet.TCPFlagSYN)
	// Touch key 0 so key 1 becomes least recently used.
	tb.Outbound(keys[0], 0)
	tb.Outbound(keys[3], packet.TCPFlagSYN)
	if tb.Len() != 3 {
		t.Fatalf("len = %d, want 3", tb.Len())
	}
	if tb.Lookup(keys[1]) != nil {
		t.Fatal("LRU flow survived eviction")
	}
	for _, want := range []FlowKey{keys[0], keys[2], keys[3]} {
		if tb.Lookup(want) == nil {
			t.Fatalf("flow %v wrongly evicted", want)
		}
	}
	if st := tb.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

func TestCountersAndLenAcrossChurn(t *testing.T) {
	clock, tb := newTable(Config{MaxFlows: 8, NewTimeout: 5 * time.Second})
	for i := 0; i < 20; i++ {
		tb.Outbound(tcpKey(devAddr, cloudAddr, uint16(40000+i), 443), packet.TCPFlagSYN)
	}
	if tb.Len() != 8 {
		t.Fatalf("len = %d, want cap 8", tb.Len())
	}
	st := tb.Stats()
	if st.Inserts != 20 || st.Evictions != 12 {
		t.Fatalf("stats = %+v", st)
	}
	clock.Advance(time.Minute)
	tb.Sweep()
	if tb.Len() != 0 {
		t.Fatalf("len after sweep = %d, want 0", tb.Len())
	}
	if st := tb.Stats(); st.Expiries != 8 {
		t.Fatalf("expiries = %d, want 8", st.Expiries)
	}
}

func TestWheelHandlesLongIdleGaps(t *testing.T) {
	// Advancing the clock far past a full wheel revolution must still
	// expire everything exactly once, and flows created after the jump
	// must land in fresh buckets.
	clock, tb := newTable(Config{NewTimeout: 2 * time.Second, EstablishedTimeout: 4 * time.Second, ClosingTimeout: time.Second})
	tb.Outbound(udpKey(devAddr, cloudAddr, 123, 123), 0)
	clock.Advance(3 * time.Hour)
	tb.Outbound(udpKey(devAddr, cloudAddr, 124, 123), 0)
	if tb.Len() != 1 {
		t.Fatalf("len = %d, want 1 (old flow expired, new alive)", tb.Len())
	}
	clock.Advance(time.Hour)
	tb.Sweep()
	if tb.Len() != 0 {
		t.Fatalf("len = %d, want 0", tb.Len())
	}
	if st := tb.Stats(); st.Expiries != 2 {
		t.Fatalf("expiries = %d, want 2", st.Expiries)
	}
}

func TestHitMissCounters(t *testing.T) {
	_, tb := newTable(Config{})
	k := tcpKey(devAddr, cloudAddr, 40000, 443)
	tb.Outbound(k, packet.TCPFlagSYN)              // miss + insert
	tb.Outbound(k, 0)                              // hit
	tb.Inbound(k.Reverse(), 0)                     // hit
	tb.Inbound(tcpKey(scanAddr, devAddr, 1, 2), 0) // miss
	st := tb.Stats()
	if st.Hits != 2 || st.Misses != 2 || st.Inserts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestKeyOfV6(t *testing.T) {
	ip := &packet.IPv6{Src: devAddr, Dst: cloudAddr}
	if _, _, ok := KeyOfV6(ip, nil, nil, nil); ok {
		t.Fatal("no-transport packet produced a key")
	}
	k, flags, ok := KeyOfV6(ip, &packet.TCP{SrcPort: 1, DstPort: 2, Flags: packet.TCPFlagSYN}, nil, nil)
	if !ok || k.Proto != packet.IPProtocolTCP || flags != packet.TCPFlagSYN || k.SrcPort != 1 || k.DstPort != 2 {
		t.Fatalf("tcp key = %v flags=%d ok=%v", k, flags, ok)
	}
	k, _, ok = KeyOfV6(ip, nil, &packet.UDP{SrcPort: 3, DstPort: 4}, nil)
	if !ok || k.Proto != packet.IPProtocolUDP || k.SrcPort != 3 {
		t.Fatalf("udp key = %v", k)
	}
	k, _, ok = KeyOfV6(ip, nil, nil, &packet.ICMPv6{})
	if !ok || k.Proto != packet.IPProtocolICMPv6 || k.SrcPort != 0 {
		t.Fatalf("icmp key = %v", k)
	}
}

func TestStateStrings(t *testing.T) {
	for s, want := range map[State]string{StateNew: "NEW", StateEstablished: "ESTABLISHED", StateClosing: "CLOSING"} {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", s, got, want)
		}
	}
	k := tcpKey(devAddr, cloudAddr, 1, 2)
	if s := fmt.Sprint(k); s == "" {
		t.Error("empty key string")
	}
}

// TestSweepLongJump: one 3-day clock jump, swept at once, must leave the
// table exactly as sweeping after every simulated second does — same
// Stats, Len and live keys — and leave the wheel cursor where flows
// touched after the jump still expire on time.
func TestSweepLongJump(t *testing.T) {
	type table struct {
		clock *netsim.Clock
		tb    *Table
	}
	jump, step := table{}, table{}
	jump.clock, jump.tb = newTable(Config{})
	step.clock, step.tb = newTable(Config{})
	both := func(f func(tb table)) { f(jump); f(step) }
	same := func(when string) {
		t.Helper()
		if js, ss := jump.tb.Stats(), step.tb.Stats(); js != ss {
			t.Fatalf("%s: stats jump=%+v step=%+v", when, js, ss)
		}
		if jump.tb.Len() != step.tb.Len() {
			t.Fatalf("%s: len jump=%d step=%d", when, jump.tb.Len(), step.tb.Len())
		}
		for k := range step.tb.flows {
			if jump.tb.flows[k] == nil {
				t.Fatalf("%s: %v live only in the stepped table", when, k)
			}
		}
	}

	// Flows in every state, opened 300 ms apart so their deadlines spread
	// over many buckets and fall between slot boundaries.
	for i := 0; i < 60; i++ {
		k := tcpKey(devAddr, cloudAddr, uint16(40000+i), 443)
		both(func(tb table) {
			tb.clock.Advance(300 * time.Millisecond)
			switch i % 3 {
			case 0:
				tb.tb.Outbound(udpKey(devAddr, cloudAddr, uint16(50000+i), 123), 0)
			case 1:
				tb.tb.Outbound(k, packet.TCPFlagSYN)
				tb.tb.Inbound(k.Reverse(), packet.TCPFlagSYN|packet.TCPFlagACK)
			default:
				tb.tb.Outbound(k, packet.TCPFlagFIN)
			}
		})
	}
	same("before the jump")

	const horizon = 3 * 24 * time.Hour
	jump.clock.Advance(horizon)
	jump.tb.Sweep()
	for i := time.Duration(0); i < horizon; i += time.Second {
		step.clock.Advance(time.Second)
		step.tb.Sweep()
	}
	same("after 3 days")
	if jump.tb.Len() != 0 || jump.tb.Stats().Expiries != 60 {
		t.Fatalf("after 3 days: len=%d stats=%+v, want every flow expired", jump.tb.Len(), jump.tb.Stats())
	}

	// Flows opened after the jump survive it and must expire on the same
	// second in both tables: NEW after 30 s, ESTABLISHED after 5 min.
	fresh := udpKey(devAddr, cloudAddr, 5353, 53)
	est := tcpKey(devAddr, cloudAddr, 41000, 443)
	both(func(tb table) {
		tb.clock.Advance(400 * time.Millisecond)
		tb.tb.Outbound(fresh, 0)
		tb.tb.Outbound(est, packet.TCPFlagSYN)
		tb.tb.Inbound(est.Reverse(), packet.TCPFlagSYN|packet.TCPFlagACK)
	})
	for s := 1; s <= 400; s++ {
		both(func(tb table) {
			tb.clock.Advance(time.Second)
			tb.tb.Sweep()
		})
		same(fmt.Sprintf("%ds after the jump", s))
		_, freshLive := jump.tb.flows[fresh]
		_, estLive := jump.tb.flows[est]
		switch {
		case s < 30 && !freshLive, s < 300 && !estLive:
			t.Fatalf("%ds after the jump: flow expired early (fresh=%v est=%v)", s, freshLive, estLive)
		case s > 32 && freshLive, s > 302 && estLive:
			t.Fatalf("%ds after the jump: flow outlived its timeout (fresh=%v est=%v)", s, freshLive, estLive)
		}
	}
}
