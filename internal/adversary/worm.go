package adversary

import (
	"sort"
	"time"

	"v6lab/internal/fleet"
	"v6lab/internal/splitmix"
)

// This file is the propagation phase: an epidemic model seeded by the
// campaign's inbound-reachable devices. A compromised device scans its
// own LAN from *inside* the firewall — the "Where Have All the Firewalls
// Gone?" escalation: one inbound-reachable device converts a whole home's
// locally-open services into worm territory — and scans the WAN using the
// campaign's shared hitlist of reachable devices. The model is pure
// computation on the simulated clock (no packet simulation): bots act in
// sorted identity order with per-bot seeded draws, so the curve is fully
// deterministic.

// WormConfig parameterizes propagation.
type WormConfig struct {
	// ProbesPerTick is each bot's scan rate. Zero means 6.
	ProbesPerTick int
	// MaxTicks bounds the simulation. Zero means 360.
	MaxTicks int
	// Tick is the simulated duration of one round. Zero means a minute.
	Tick time.Duration
}

func (c WormConfig) withDefaults() WormConfig {
	if c.ProbesPerTick == 0 {
		c.ProbesPerTick = 6
	}
	if c.MaxTicks == 0 {
		c.MaxTicks = 360
	}
	if c.Tick == 0 {
		c.Tick = time.Minute
	}
	return c
}

// PolicyWorm is the per-firewall-policy time-to-compromise row. Tick
// fields are tick indexes; -1 means never reached within MaxTicks.
type PolicyWorm struct {
	Policy  string
	Homes   int
	Devices int
	// Entry counts WAN-reachable devices (the campaign's findings): the
	// worm's ways in under this policy.
	Entry int
	// Susceptible counts devices the worm can ever take: entry devices
	// plus locally-open devices sharing a home with at least one entry.
	Susceptible int
	// Compromised is the count at the end of the run.
	Compromised int
	// TFirst/T50/T90/TAll are the ticks at which the first device, 50%
	// and 90% of the susceptible set, and the whole susceptible set fell.
	TFirst, T50, T90, TAll int
}

// WormReport is the population-wide propagation outcome.
type WormReport struct {
	ProbesPerTick int
	Tick          time.Duration
	// Ticks is how many rounds actually ran (early exit when the
	// susceptible set is exhausted).
	Ticks      int
	ProbesSent int

	Devices, Entry, Susceptible, Compromised int

	// PerPolicy rows sorted by policy name.
	PerPolicy []PolicyWorm
	// Curve is the cumulative compromised count at each tick, starting at
	// tick 0 (patient zero).
	Curve []int
}

type wormNode struct {
	home       int
	policy     string
	device     string
	lanOpen    bool // has any TCPv6 service: LAN-compromisable
	wanEntry   bool // campaign found it inbound-reachable
	infected   bool
	infectedAt int
	rng        splitmix.Rand
}

// runWorm seeds patient zero on the first WAN-reachable device and runs
// the epidemic to exhaustion or MaxTicks.
func runWorm(cfg Config, pop *fleet.Population, camp *CampaignReport) WormReport {
	wc := cfg.Worm
	rep := WormReport{ProbesPerTick: wc.ProbesPerTick, Tick: wc.Tick, PerPolicy: []PolicyWorm{}}

	// Build the node universe in (home, inventory-device) order; the
	// index is the bot identity every deterministic iteration uses.
	reachable := map[int]map[string]bool{}
	for _, hc := range camp.Homes {
		for _, rd := range hc.Reachable {
			if reachable[rd.Home] == nil {
				reachable[rd.Home] = map[string]bool{}
			}
			reachable[rd.Home][rd.Device] = true
		}
	}
	var nodes []*wormNode
	homeNodes := map[int][]int{}
	for _, hr := range pop.Homes {
		inv := hr.Inventory
		if !inv.V6 {
			continue
		}
		for _, d := range inv.Devices {
			// Inside the firewall both families are attack surface: the
			// NAT that shielded the v4 services is behind the bot now.
			n := &wormNode{
				home:     inv.Index,
				policy:   inv.Policy,
				device:   d.Name,
				lanOpen:  len(d.OpenTCPv6) > 0 || len(d.OpenTCPv4) > 0,
				wanEntry: reachable[inv.Index][d.Name],
			}
			homeNodes[inv.Index] = append(homeNodes[inv.Index], len(nodes))
			nodes = append(nodes, n)
		}
	}
	rep.Devices = len(nodes)

	// The worm's WAN hitlist: every entry device, in identity order —
	// exactly what the campaign handed the botnet.
	var wanTargets []int
	entryHome := map[int]bool{}
	for id, n := range nodes {
		if n.wanEntry {
			rep.Entry++
			wanTargets = append(wanTargets, id)
			entryHome[n.home] = true
		}
	}
	for _, n := range nodes {
		if n.wanEntry || (n.lanOpen && entryHome[n.home]) {
			rep.Susceptible++
		}
	}

	wormSeed := cfg.CampaignSeed*0xd1342543de82ef95 + 0x2545f4914f6cdd1d
	infect := func(id, tick int) {
		n := nodes[id]
		n.infected = true
		n.infectedAt = tick
		n.rng = splitmix.New(wormSeed ^ (uint64(id)+1)*0x9e3779b97f4a7c15)
	}

	if len(wanTargets) > 0 {
		infect(wanTargets[0], 0)
		rep.Compromised = 1
	}
	rep.Curve = append(rep.Curve, rep.Compromised)

	for tick := 1; tick <= wc.MaxTicks && rep.Compromised < rep.Susceptible; tick++ {
		rep.Ticks = tick
		// Snapshot: devices infected this tick start scanning next tick.
		var bots []int
		for id, n := range nodes {
			if n.infected && n.infectedAt < tick {
				bots = append(bots, id)
			}
		}
		for _, id := range bots {
			b := nodes[id]
			budget := wc.ProbesPerTick
			// LAN first: inside the firewall every locally-open housemate
			// is one probe away.
			for _, hid := range homeNodes[b.home] {
				if budget == 0 {
					break
				}
				h := nodes[hid]
				if h.infected || !h.lanOpen {
					continue
				}
				budget--
				rep.ProbesSent++
				infect(hid, tick)
				rep.Compromised++
			}
			// Remaining budget goes to random draws from the shared WAN
			// hitlist; hitting an already-infected device wastes the probe
			// (the classic random-scanning epidemic slowdown).
			for ; budget > 0 && len(wanTargets) > 0; budget-- {
				rep.ProbesSent++
				tid := wanTargets[b.rng.Intn(len(wanTargets))]
				if !nodes[tid].infected {
					infect(tid, tick)
					rep.Compromised++
				}
			}
		}
		rep.Curve = append(rep.Curve, rep.Compromised)
	}

	// Per-policy time-to-compromise table.
	perPolicy := map[string]*PolicyWorm{}
	polHomes := map[string]map[int]bool{}
	for _, n := range nodes {
		pw := perPolicy[n.policy]
		if pw == nil {
			pw = &PolicyWorm{Policy: n.policy, TFirst: -1, T50: -1, T90: -1, TAll: -1}
			perPolicy[n.policy] = pw
			polHomes[n.policy] = map[int]bool{}
		}
		polHomes[n.policy][n.home] = true
		pw.Devices++
		if n.wanEntry {
			pw.Entry++
		}
		if n.wanEntry || (n.lanOpen && entryHome[n.home]) {
			pw.Susceptible++
		}
		if n.infected {
			pw.Compromised++
		}
	}
	for _, pw := range perPolicy {
		pw.Homes = len(polHomes[pw.Policy])
		if pw.Susceptible == 0 {
			continue
		}
		// Walk infection times for this policy's devices in tick order.
		var times []int
		for _, n := range nodes {
			if n.policy == pw.Policy && n.infected {
				times = append(times, n.infectedAt)
			}
		}
		sort.Ints(times)
		at := func(frac float64) int {
			need := int(frac*float64(pw.Susceptible) + 0.999999)
			if need < 1 {
				need = 1
			}
			if len(times) < need {
				return -1
			}
			return times[need-1]
		}
		if len(times) > 0 {
			pw.TFirst = times[0]
		}
		pw.T50 = at(0.5)
		pw.T90 = at(0.9)
		if len(times) >= pw.Susceptible {
			pw.TAll = times[pw.Susceptible-1]
		}
	}
	names := make([]string, 0, len(perPolicy))
	for name := range perPolicy {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rep.PerPolicy = append(rep.PerPolicy, *perPolicy[name])
	}
	return rep
}
