// Package adversary simulates the WAN-side attacker's view of a fleet of
// smart homes. The paper's §5.4.2 exposure scan assumes the attacker
// already knows every device address; in the real v6 Internet the
// attacker must *find* targets first. This package models that pipeline
// in three layers, each grounded in the measurement literature:
//
//  1. Address discovery ("Unconsidered Installations"): a deterministic
//     hitlist generator expands vendor MAC blocks into EUI-64 candidates,
//     sweeps low-byte identifiers, and harvests addresses the homes
//     themselves leaked (EUI-64 source addresses in DNS/data/NTP,
//     tracker-visible privacy addresses). Candidates are scored against
//     each home's ground-truth inventory: predictable identifiers are
//     found, RFC 8981 privacy identifiers are not.
//  2. Campaign scanning: a seeded scheduler sweeps the discovered
//     population through the firewall of each home on the simulated
//     clock, with per-home probe budgets. Results merge in home-index
//     order, so campaign reports are byte-identical at any worker count —
//     the same discipline internal/fleet uses.
//  3. Worm propagation ("Where Have All the Firewalls Gone?"): an
//     epidemic model where each compromised inbound-reachable device
//     scans its own LAN from inside the firewall and the WAN across
//     homes, producing a time-to-compromise curve per firewall policy.
package adversary

import (
	"context"
	"fmt"
	"net/netip"
	"time"

	"v6lab/internal/device"
	"v6lab/internal/experiment"
	"v6lab/internal/fleet"
	"v6lab/internal/router"
	"v6lab/internal/telemetry"
)

// ISPBase is the simulated ISP's /48: every home receives one /64 out of
// it, assigned sequentially by home index (subnet id = index+1), the
// dense allocation pattern that makes prefix sweeps viable for real ISPs.
var ISPBase = netip.MustParsePrefix("2001:db8:4400::/48")

// Vantage is the attacker's scanning host, outside every home prefix.
var Vantage = netip.MustParseAddr("2001:db8:4400:ffff::bad1")

// HomePrefix returns home i's WAN-visible /64 within ISPBase.
func HomePrefix(i int) netip.Prefix {
	b := ISPBase.Addr().As16()
	n := uint16(i + 1)
	b[6] = byte(n >> 8)
	b[7] = byte(n)
	return netip.PrefixFrom(netip.AddrFrom16(b), 64)
}

// wanFromLAN maps a home-internal address (in router.GUAPrefix) to its
// WAN-visible equivalent in home i's prefix: the interface identifier is
// what the home announces; the /64 is what the ISP routed to it.
func wanFromLAN(i int, lan netip.Addr) netip.Addr {
	b := HomePrefix(i).Addr().As16()
	l := lan.As16()
	copy(b[8:], l[8:])
	return netip.AddrFrom16(b)
}

// lanFromWAN reverses wanFromLAN for probing: the campaign injects at the
// home router, which speaks the testbed's internal /64.
func lanFromWAN(wan netip.Addr) netip.Addr {
	b := router.GUAPrefix.Addr().As16()
	w := wan.As16()
	copy(b[8:], w[8:])
	return netip.AddrFrom16(b)
}

// Config parameterizes a full adversary run.
type Config struct {
	// Fleet is the population under attack. Its Sweep is replaced: the
	// campaign is each v6-enabled home's WAN phase. Its Telemetry also
	// receives the adversary counters (folded on the single deterministic
	// path after each worker pool drains, in home-index order), and its
	// Progress one event per campaign home.
	Fleet fleet.Config

	// CampaignSeed seeds the attacker's scheduler: per-home probe-order
	// shuffling and the worm's target-selection draws. Zero means 1.
	CampaignSeed uint64

	// ProbeBudget caps SYN probes per home campaign; hitlist entries that
	// do not fit are dropped from the shuffled tail. Zero means no cap.
	ProbeBudget int

	// LowByteSweep is how many prefix::N identifiers the generator tries
	// per home (the "low-byte" hitlist). Zero means 256.
	LowByteSweep int

	// Worm parameterizes the propagation phase; zero values take the
	// defaults documented on WormConfig.
	Worm WormConfig
}

func (c Config) withDefaults() Config {
	if c.CampaignSeed == 0 {
		c.CampaignSeed = 1
	}
	if c.LowByteSweep == 0 {
		c.LowByteSweep = 256
	}
	c.Worm = c.Worm.withDefaults()
	return c
}

// Report is a completed adversary run.
type Report struct {
	Homes        int
	CampaignSeed uint64
	ProbeBudget  int

	Discovery DiscoveryReport
	Campaign  CampaignReport
	Worm      WormReport

	// Elapsed is total simulated home time consumed by the underlying
	// fleet run, campaign probes included.
	Elapsed time.Duration
}

// RunContext executes the full pipeline: fleet ground truth, discovery,
// campaign, worm. The fleet checks ctx per home; a cancelled run returns
// ctx.Err() and no Report.
//
// Discovery and the campaign run inside the fleet's per-home job: each
// v6-enabled home is scored against its inventory and then swept through
// its firewall on the live home the fleet has just booted. IPv4-only homes
// are scored after the fleet returns and recorded as skipped.
func RunContext(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	ouis := device.VendorOUIs()
	ports := CampaignPorts()
	n := max(cfg.Fleet.Homes, 0)
	discoveries := make([]*HomeDiscovery, n)
	camps := make([]*HomeCampaign, n)
	cfg.Fleet.Sweep = func(h *experiment.Home, hr *fleet.HomeResult) error {
		i := hr.Spec.Index
		hd := discoverHome(hr.Inventory, ouis, cfg.LowByteSweep)
		hc, err := campaignHome(cfg, h, hr, hd, ports)
		if err != nil {
			return err
		}
		discoveries[i], camps[i] = hd, hc
		if !hc.Skipped {
			telemetry.Emit(cfg.Fleet.Progress, telemetry.Event{
				Scope:   "adversary",
				ID:      fmt.Sprintf("campaign %d/%d", i+1, n),
				Detail:  fmt.Sprintf("%s, %d targets, %d devices reachable", hc.Policy, hc.TargetsProbed, len(hc.Reachable)),
				Elapsed: hc.Elapsed,
			})
		}
		return nil
	}
	pop, err := fleet.RunContext(ctx, cfg.Fleet)
	if err != nil {
		return nil, fmt.Errorf("adversary: fleet: %w", err)
	}
	rep := &Report{
		Homes:        len(pop.Homes),
		CampaignSeed: cfg.CampaignSeed,
		ProbeBudget:  cfg.ProbeBudget,
	}
	for i, hr := range pop.Homes {
		rep.Elapsed += hr.Elapsed
		if discoveries[i] == nil {
			discoveries[i] = discoverHome(hr.Inventory, ouis, cfg.LowByteSweep)
			camps[i] = &HomeCampaign{Index: i, Policy: hr.Spec.Policy, Skipped: true}
		}
	}
	rep.Discovery = summarizeDiscovery(discoveries)
	rep.Campaign = summarizeCampaign(ports, camps)
	rep.Worm = runWorm(cfg, pop, &rep.Campaign)

	if cfg.Fleet.Telemetry != nil {
		foldMetrics(cfg.Fleet.Telemetry, rep)
	}
	return rep, nil
}
