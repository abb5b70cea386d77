package experiment

import (
	"time"

	"v6lab/internal/conntrack"
	"v6lab/internal/device"
	"v6lab/internal/faults"
	"v6lab/internal/firewall"
	"v6lab/internal/netsim"
	"v6lab/internal/router"
)

// Home is one simulated home LAN wired for one Table 2 config: the study's
// recycled switch, a router (optionally firewalled), and the study's
// stacks attached and reset for the config. Its methods are the phases of
// the paper's §4 sequence, so every engine — the six-config study, the
// port scan, the WAN exposure scans, the fleet, the adversary campaign,
// and the timeline — boots its homes through the same code.
//
// A Home borrows the study's switch: building the next one resets it, so
// only one Home per study is live at a time.
type Home struct {
	Config Config
	Net    *netsim.Network
	Router *router.Router
	// Firewall is the router's inbound-IPv6 firewall; nil when the home
	// was built without a policy.
	Firewall *firewall.Firewall

	st *Study
	// faulted reports whether the study's fault profile is installed,
	// which is when Boot and Workload run their retry rounds.
	faulted bool
}

// NewHome wires the LAN for cfg. A non-nil pol installs an inbound-IPv6
// firewall on the router. A non-empty impair installs the study's fault
// profile, if it has an active one: the link impairment sub-seeded by
// impair (the config ID in the study, a per-home label in the timeline)
// and the router's service faults. With an empty impair the home runs
// on a perfect network even in a faulted study — the scans measure
// exposure, not impairment.
func (st *Study) NewHome(cfg Config, pol firewall.Policy, impair string) *Home {
	net := st.scratch.network(st.Clock)
	if st.tm != nil {
		net.SetMetrics(st.tm.net)
	} else {
		net.SetMetrics(nil)
	}
	h := &Home{Config: cfg, Net: net, Router: router.New(cfg.Router, st.Cloud), st: st}
	if pol != nil {
		h.Firewall = firewall.New(pol, st.Clock, conntrack.DefaultConfig())
		h.Router.SetFirewall(h.Firewall)
	}
	h.Router.Attach(net)
	if impair != "" && st.Faults != nil {
		net.SetImpairment(faults.NewLink(*st.Faults, faults.SubSeed(st.Faults.Seed, impair)))
		h.Router.Faults = faults.NewServices(*st.Faults, st.Clock)
		h.faulted = true
	}
	for _, s := range st.Stacks {
		s.Attach(net)
		s.Reset(cfg.Mode, cfg.V6Seq)
	}
	return h
}

// Boot reboots the home: the router advertises once (dnsmasq sends
// periodic RAs), devices solicit and configure as they boot, then DAD
// completes and every device announces its addresses.
func (h *Home) Boot() error {
	h.Router.SendRouterAdvert()
	for _, s := range h.st.Stacks {
		s.Boot()
	}
	if err := h.Drain(); err != nil {
		return err
	}
	if err := h.retryRounds((*device.Stack).RetryConfig); err != nil {
		return err
	}
	for _, s := range h.st.Stacks {
		s.Announce()
	}
	return h.Drain()
}

// Workload lets every device talk to its destinations.
func (h *Home) Workload() error {
	for _, s := range h.st.Stacks {
		s.RunWorkload(h.st.Cloud)
	}
	if err := h.Drain(); err != nil {
		return err
	}
	return h.retryRounds((*device.Stack).RetryWorkload)
}

// Drain delivers queued frames until the switch is quiescent, within the
// study's frame budget.
func (h *Home) Drain() error {
	_, err := h.Net.Run(h.st.MaxFramesPerRun)
	return err
}

// Reboot power-cycles device i alone: reset, boot, drain, announce, drain.
func (h *Home) Reboot(i int) error {
	s := h.st.Stacks[i]
	s.Reset(h.Config.Mode, h.Config.V6Seq)
	s.Boot()
	if err := h.Drain(); err != nil {
		return err
	}
	s.Announce()
	return h.Drain()
}

// retryRounds models client retransmit timers under impairment: advance
// the clock past a backoff interval, let every stack retransmit whatever
// went unanswered, and drain the network; repeat until a round sends
// nothing. The per-stack retry caps bound it, with 4 rounds (the ballpark
// of RFC 4861's MAX_RTR_SOLICITATIONS) as a backstop. Unfaulted homes
// run no rounds: the timers model recovery from impairment only.
func (h *Home) retryRounds(retry func(*device.Stack) int) error {
	if !h.faulted {
		return nil
	}
	backoff := 4 * time.Second
	for round := 0; round < 4; round++ {
		h.st.Clock.Advance(backoff)
		backoff *= 2
		sent := 0
		for _, s := range h.st.Stacks {
			sent += retry(s)
		}
		if sent == 0 {
			return nil
		}
		if h.st.tm != nil {
			h.st.tm.backoffRounds.Inc()
		}
		if err := h.Drain(); err != nil {
			return err
		}
	}
	return nil
}
