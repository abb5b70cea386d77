package report

import (
	"fmt"
	"strings"
	"time"

	"v6lab/internal/adversary"
)

// Adversary renders the attacker's-view pipeline: hitlist discovery
// scored against ground truth, the campaign sweep per firewall policy,
// and the worm's per-policy time-to-compromise table. Everything here is
// derived from index-order-merged results, so the rendering is
// byte-identical at any worker count.
func Adversary(rep *adversary.Report) string {
	var w strings.Builder

	title := fmt.Sprintf("Adversary — %d homes, campaign seed %d", rep.Homes, rep.CampaignSeed)
	fmt.Fprintf(&w, "%s\n%s\n", title, strings.Repeat("=", len(title)))

	d := rep.Discovery
	pct := func(n, of int) float64 {
		if of == 0 {
			return 0
		}
		return 100 * float64(n) / float64(of)
	}
	fmt.Fprintf(&w, "\nAddress discovery (hitlist generation vs ground truth)\n")
	fmt.Fprintf(&w, "  homes swept        %6d  (%d with IPv6)\n", d.Homes, d.HomesV6)
	fmt.Fprintf(&w, "  candidates tried   %6d\n", d.Candidates)
	fmt.Fprintf(&w, "  addresses held     %6d\n", d.AddrsTotal)
	fmt.Fprintf(&w, "  discovered         %6d  (%.1f%%)\n", d.Found, pct(d.Found, d.AddrsTotal))
	fmt.Fprintf(&w, "    eui64-expansion  %6d\n", d.FoundEUI64)
	fmt.Fprintf(&w, "    low-byte-sweep   %6d\n", d.FoundLowByte)
	fmt.Fprintf(&w, "    leak-harvest     %6d  (%d privacy addrs: leaks are their only route)\n",
		d.FoundLeak, d.FoundRandom)
	fmt.Fprintf(&w, "  never found        %6d  (%d privacy-addressed)\n", d.Missed, d.MissedRandom)

	c := rep.Campaign
	fmt.Fprintf(&w, "\nCampaign sweep by firewall policy (%d probe ports, %d homes scanned, %d skipped)\n",
		len(c.Ports), c.HomesScanned, c.HomesSkipped)
	fmt.Fprintf(&w, "%-10s %5s %7s %7s %8s %7s %8s\n",
		"Policy", "Homes", "Scanned", "Targets", "Probes", "DevRch", "PortRch")
	for _, pc := range c.PerPolicy {
		fmt.Fprintf(&w, "%-10s %5d %7d %7d %8d %7d %8d\n",
			pc.Policy, pc.Homes, pc.HomesScanned, pc.TargetsProbed, pc.ProbesSent,
			pc.DevicesReachable, pc.PortsReachable)
	}
	fmt.Fprintf(&w, "%-10s %5d %7d %7d %8d %7d %8d\n",
		"total", c.HomesScanned+c.HomesSkipped, c.HomesScanned, c.TargetsProbed,
		c.ProbesSent, c.DevicesReachable, c.PortsReachable)

	wm := rep.Worm
	tick := func(t int) string {
		if t < 0 {
			return "-"
		}
		return (time.Duration(t) * wm.Tick).String()
	}
	fmt.Fprintf(&w, "\nWorm propagation (%d probes/bot/tick, tick %s, ran %d ticks)\n",
		wm.ProbesPerTick, wm.Tick, wm.Ticks)
	fmt.Fprintf(&w, "%-10s %5s %5s %6s %6s %6s %8s %8s %8s %8s\n",
		"Policy", "Homes", "Devs", "Entry", "Susc", "Comp", "t_first", "t_50", "t_90", "t_all")
	for _, pw := range wm.PerPolicy {
		fmt.Fprintf(&w, "%-10s %5d %5d %6d %6d %6d %8s %8s %8s %8s\n",
			pw.Policy, pw.Homes, pw.Devices, pw.Entry, pw.Susceptible, pw.Compromised,
			tick(pw.TFirst), tick(pw.T50), tick(pw.T90), tick(pw.TAll))
	}
	fmt.Fprintf(&w, "%-10s %5s %5d %6d %6d %6d  probes spent %d\n",
		"total", "", wm.Devices, wm.Entry, wm.Susceptible, wm.Compromised, wm.ProbesSent)

	if len(wm.Curve) > 1 {
		fmt.Fprintf(&w, "\nCompromise curve (cumulative devices, sampled)\n")
		step := (len(wm.Curve) + 11) / 12
		for t := 0; t < len(wm.Curve); t += step {
			bar := ""
			if wm.Susceptible > 0 {
				bar = strings.Repeat("#", wm.Curve[t]*40/wm.Susceptible)
			}
			fmt.Fprintf(&w, "  %8s %5d %s\n", (time.Duration(t) * wm.Tick).String(), wm.Curve[t], bar)
		}
		last := len(wm.Curve) - 1
		if last%step != 0 {
			bar := ""
			if wm.Susceptible > 0 {
				bar = strings.Repeat("#", wm.Curve[last]*40/wm.Susceptible)
			}
			fmt.Fprintf(&w, "  %8s %5d %s\n", (time.Duration(last) * wm.Tick).String(), wm.Curve[last], bar)
		}
	}
	return w.String()
}
