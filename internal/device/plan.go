package device

import (
	"fmt"
	"strings"

	"v6lab/internal/cloud"
	"v6lab/internal/paper"
	"v6lab/internal/tlssim"
)

// Class describes how a destination domain's IP-version usage evolves
// across the IPv4-only, IPv6-only, and dual-stack experiments — the
// behaviours Table 9 counts.
type Class int

// The domain classes.
const (
	// ClassV4Stay: IPv4 in the IPv4-only run and in dual-stack; no AAAA.
	ClassV4Stay Class = iota
	// ClassV4WithAAAA: like V4Stay but the domain publishes AAAA records
	// the device never uses (Table 9's last row).
	ClassV4WithAAAA
	// ClassV4NonCommon: appears only in the IPv4-only run (CDN variance).
	ClassV4NonCommon
	// ClassExt46: IPv4-only run over v4; dual-stack over both families.
	ClassExt46
	// ClassSw46: IPv4-only run over v4; dual-stack over v6 exclusively.
	ClassSw46
	// ClassV6Stay: IPv6-only runs over v6; dual-stack over v6.
	ClassV6Stay
	// ClassV6NonCommon: appears only in the IPv6-only runs.
	ClassV6NonCommon
	// ClassExt64: IPv6-only over v6; dual-stack over both families.
	ClassExt64
	// ClassSw64: IPv6-only over v6; dual-stack over v4 exclusively.
	ClassSw64
	// ClassDNSOnly: name is resolved but never contacted.
	ClassDNSOnly
	// ClassHardcoded: vendor-configured literal IPv6 endpoint, contacted
	// without any DNS resolution (the gateways of §5.1.2).
	ClassHardcoded
)

// classHasAAAA reports whether domains of this class publish AAAA records.
func classHasAAAA(c Class) bool {
	switch c {
	case ClassV4Stay, ClassV4NonCommon, ClassDNSOnly:
		return false
	}
	return true
}

// v6Class reports whether the class involves contacting over IPv6.
func v6Class(c Class) bool {
	switch c {
	case ClassExt46, ClassSw46, ClassV6Stay, ClassV6NonCommon, ClassExt64, ClassSw64, ClassHardcoded:
		return true
	}
	return false
}

// DomainSpec is one planned destination (or DNS-only name) for a device.
type DomainSpec struct {
	Name      string
	Class     Class
	HasAAAA   bool
	Party     cloud.Party
	Tracker   bool
	Essential bool
	// QueryAAAA: the device issues AAAA queries for this name.
	QueryAAAA bool
	// AAAAViaV4Only: its AAAA queries use the IPv4 resolver exclusively.
	AAAAViaV4Only bool
	// AOnlyV6: the device queries only A records for this name even in
	// IPv6-only networks (Table 5's A-only row).
	AOnlyV6 bool
	// UseHTTPS: the device resolves the v6 endpoint via an HTTPS-record
	// ipv6hint instead of AAAA (HTTP/3 stacks).
	UseHTTPS bool
	// AliasOnly: resolved but never contacted (CNAME-target style names).
	AliasOnly bool
	// NoDNS: the v6 endpoint is vendor-configured; the device contacts it
	// without resolving the name (its identity still leaks via TLS SNI,
	// which is how the analyzer attributes it).
	NoDNS bool
	// ViaEUI64: DNS queries and contacts for this name are sourced from
	// the device's EUI-64 GUA (Figure 5's exposure accounting).
	ViaEUI64 bool
	// Hello is the TLS ClientHello the device opens flows to this name
	// with. Devices send no client random, so it depends only on Name:
	// BuildPlans encodes it once and every stack running the plan shares
	// it read-only.
	Hello []byte
}

// Plan is the full workload of one device.
type Plan struct {
	Dev   *Profile
	Specs []DomainSpec
	// V4Bytes/V6Bytes are the per-experiment Internet payload budgets in
	// dual-stack, divided among the families' contact domains to realize
	// the device's DualV6Share (Figure 4, Table 6).
	V4Bytes, V6Bytes int
	// TotalBytes is the per-experiment Internet payload budget outside
	// dual-stack.
	TotalBytes int
}

// EssentialSpecs returns the specs marked essential.
func (pl *Plan) EssentialSpecs() []DomainSpec {
	var out []DomainSpec
	for _, s := range pl.Specs {
		if s.Essential {
			out = append(out, s)
		}
	}
	return out
}

// categoryIndex maps a category to its paper column.
func categoryIndex(c Category) int {
	for i, name := range paper.CategoryOrder {
		if string(c) == name {
			return i
		}
	}
	panic(fmt.Sprintf("device: unknown category %q", c))
}

// classTargets gives the per-category domain-class counts derived from
// Table 9 (see DESIGN.md §4 for the reconciliation).
var classTargets = map[Class]paper.Vec{
	// V4Stay is reduced by each non-functional device's two essential
	// IPv4-only destinations (one for the SmartLife Hub), which land in
	// the same bucket.
	ClassV4Stay:      {19, 55, 87, 7, 0, 38, 154},
	ClassV4WithAAAA:  {0, 1, 18, 0, 0, 0, 13},
	ClassV4NonCommon: {29, 151, 238, 46, 4, 31, 178},
	ClassExt46:       {1, 15, 23, 1, 0, 0, 68},
	ClassSw46:        {0, 0, 20, 0, 0, 0, 17},
	ClassV6Stay:      {5, 0, 32, 0, 0, 0, 33},
	ClassV6NonCommon: {2, 0, 290, 4, 0, 0, 65},
	ClassExt64:       {2, 7, 34, 0, 0, 0, 79},
	ClassSw64:        {0, 3, 15, 0, 0, 0, 8},
	ClassDNSOnly:     {0, 1, 10, 0, 0, 0, 63},
	ClassHardcoded:   {0, 0, 0, 15, 0, 0, 0},
}

// dnsNameTargets: per-category distinct-name targets beyond contacts.
var (
	aaaaResTargets = paper.Table6.AAAAResNames // names with positive AAAA answers
	aaaaReqTargets = paper.Table6.AAAAReqNames // names queried for AAAA at all
	aOnlyV6Targets = paper.Table6.AOnlyV6Names // names queried A-only over v6
	v4OnlyAAAATgts = paper.Table6.V4OnlyAAAANames
)

// trackerSLDs are the third-party tracking second-level domains the
// functional devices contact over IPv4 only (§5.4.3 names three of them;
// the rest are synthetic).
var trackerSLDs = []string{
	"app-measurement.com", "omtrdc.net", "segment.io",
	"doubleclick.example", "scorecard.example", "crashlytics.example",
	"branch.example", "adjust.example", "amplitude.example",
	"mixpanel.example", "braze.example", "sentry.example", "bugsnag.example",
}

// slug converts a device name to a DNS-safe label.
func slug(name string) string {
	s := strings.ToLower(name)
	s = strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			return r
		case r == ' ' || r == '-' || r == '/':
			return '-'
		}
		return -1
	}, s)
	return strings.Trim(s, "-")
}

// vendorSLD gives the device's first-party second-level domain.
func vendorSLD(p *Profile) string { return slug(p.Manufacturer) + ".example" }

// BuildPlans produces the per-device workload plans for a registry. The
// allocation is fully deterministic: category-level targets from the paper
// are distributed across eligible devices by weight using the
// largest-remainder method, so the per-category sums are exact.
func BuildPlans(profiles []*Profile) []*Plan {
	plans := make([]*Plan, len(profiles))
	for i, p := range profiles {
		plans[i] = &Plan{Dev: p}
	}
	byCat := map[int][]*Plan{}
	for _, pl := range plans {
		ci := categoryIndex(pl.Dev.Category)
		byCat[ci] = append(byCat[ci], pl)
	}

	// Population scaling: the paper's per-category targets assume the full
	// 93-device registry. A household holding a subset of a category gets
	// a proportional share (half-up rounding); the full registry scales by
	// exactly 1, leaving the single-home study untouched.
	scale := func(total, ci int) int {
		present, full := len(byCat[ci]), paper.DevicesPerCategory[ci]
		if present == full {
			return total
		}
		return (total*present + full/2) / full
	}

	for ci := 0; ci < paper.NumCategories; ci++ {
		cat := byCat[ci]
		// Contact-class allocation.
		for _, class := range []Class{
			ClassV4Stay, ClassV4WithAAAA, ClassV4NonCommon, ClassExt46,
			ClassSw46, ClassV6Stay, ClassV6NonCommon, ClassExt64,
			ClassSw64, ClassDNSOnly, ClassHardcoded,
		} {
			total := scale(classTargets[class][ci], ci)
			if total == 0 {
				continue
			}
			eligible, weights := eligibleFor(cat, class)
			counts := apportion(total, weights)
			for i, pl := range eligible {
				addSpecs(pl, class, counts[i])
			}
		}
	}

	for _, pl := range plans {
		addEssentials(pl)
	}
	assignDNSBehaviour(plans, byCat, scale)
	assignAnswerableNames(plans)
	assignReadiness(plans, byCat)
	assignTrackers(plans)
	assignEUI64Exposure(plans)
	assignVolumes(plans, byCat)
	for _, pl := range plans {
		pl.encodeHellos()
	}
	return plans
}

// encodeHellos fills every spec's Hello, all of them in one backing
// array per plan.
func (pl *Plan) encodeHellos() {
	n := 0
	for i := range pl.Specs {
		n += 64 + len(pl.Specs[i].Name)
	}
	buf := make([]byte, 0, n)
	for i := range pl.Specs {
		sp := &pl.Specs[i]
		start := len(buf)
		buf = tlssim.AppendClientHello(buf, sp.Name, nil)
		sp.Hello = buf[start:len(buf):len(buf)]
	}
}

// assignAnswerableNames guarantees every device whose AAAA queries succeed
// (AAAARespOverV4, or the answered v6 resolvers) at least two names with
// AAAA records: devices with a v6 resolver get alias lookups (answered in
// IPv6-only networks too); v4-resolver devices get AAAA-published
// IPv4-only-run destinations.
func assignAnswerableNames(plans []*Plan) {
	for _, pl := range plans {
		p := pl.Dev
		if !p.AAAARespOverV4 {
			continue
		}
		have := 0
		for _, sp := range pl.Specs {
			if !sp.QueryAAAA || !sp.HasAAAA {
				continue
			}
			// Devices with a v6 resolver must have names answerable in the
			// IPv6-only runs, where dual-stack-only destinations are never
			// queried.
			if p.DNSOverV6 && !sp.AliasOnly &&
				sp.Class != ClassV6Stay && sp.Class != ClassV6NonCommon &&
				sp.Class != ClassExt64 && sp.Class != ClassSw64 {
				continue
			}
			have++
		}
		if have >= 2 {
			continue
		}
		if p.DNSOverV6 {
			addAlias(pl, 2-have, true)
			continue
		}
		for si := range pl.Specs {
			s := &pl.Specs[si]
			if have >= 2 {
				break
			}
			if s.Class == ClassV4NonCommon && !s.HasAAAA {
				s.HasAAAA = true
				s.QueryAAAA = true
				have++
			}
		}
	}
}

// assignReadiness raises the non-functional devices' destination AAAA
// readiness to Table 7's fractions by marking IPv4-only-run destinations
// (ClassV4NonCommon: never contacted in dual-stack, so Table 9's
// v4-only-with-AAAA row is untouched) as AAAA-published.
func assignReadiness(plans []*Plan, byCat map[int][]*Plan) {
	for ci := 0; ci < paper.NumCategories; ci++ {
		nfDomains, nfAAAA := 0, 0
		for _, pl := range byCat[ci] {
			if pl.Dev.FunctionalV6Only {
				continue
			}
			for _, sp := range pl.Specs {
				nfDomains++
				if sp.HasAAAA {
					nfAAAA++
				}
			}
		}
		if nfDomains == 0 {
			continue
		}
		target := float64(paper.Table7Category.NonFuncAAAA[ci]) / float64(max(1, paper.Table7Category.NonFuncDomains[ci]))
		need := int(target*float64(nfDomains)) - nfAAAA
		for _, pl := range byCat[ci] {
			if need <= 0 {
				break
			}
			if pl.Dev.FunctionalV6Only {
				continue
			}
			for si := range pl.Specs {
				s := &pl.Specs[si]
				if need <= 0 {
					break
				}
				if s.Class == ClassV4NonCommon && !s.HasAAAA && !s.QueryAAAA {
					s.HasAAAA = true
					need--
				}
			}
		}
	}
}

// eui64Pin describes how many destination names a device exposes its
// EUI-64 address to, split by party (Figure 5's right panel).
type eui64Pin struct{ first, third, support int }

// The data devices expose 27 domains (24 first / 1 third / 2 support — the
// two support entries are the EUI64ForNTP flags on Fire TV and Echo Plus);
// the three Samsung DNS-only devices expose 30 names (20/8/2).
var eui64Pins = map[string]eui64Pin{
	"Nest Camera":     {first: 5, third: 1},
	"Fire TV":         {first: 5}, // +1 support via NTP
	"Echo Plus":       {first: 4}, // +1 support via NTP
	"Echo Show 5":     {first: 5},
	"Echo Show 8":     {first: 5},
	"Samsung Fridge":  {first: 6, third: 3, support: 1},
	"Aeotec Hub":      {first: 7, third: 2, support: 1},
	"SmartThings Hub": {first: 7, third: 3},
}

// assignEUI64Exposure marks which names each EUI-64-using device sources
// from its EUI-64 GUA, converting the pinned number of them to third-party
// trackers and support CDNs so the Figure 5 party split reproduces.
func assignEUI64Exposure(plans []*Plan) {
	trackerIdx := 100
	for _, pl := range plans {
		pin, ok := eui64Pins[pl.Dev.Name]
		if !ok {
			continue
		}
		dataDev := pl.Dev.EUI64ForData
		marked := 0
		want := pin.first + pin.third + pin.support
		for si := range pl.Specs {
			s := &pl.Specs[si]
			if marked == want {
				break
			}
			if dataDev {
				// Exposure via data: v6-contacted destinations.
				if !v6Class(s.Class) || s.NoDNS {
					continue
				}
			} else {
				// Exposure via DNS only: names queried over the v6
				// resolver.
				if s.AAAAViaV4Only || (!s.QueryAAAA && !s.AOnlyV6) {
					continue
				}
			}
			s.ViaEUI64 = true
			switch {
			case marked < pin.first:
				s.Party = cloud.PartyFirst
			case marked < pin.first+pin.third:
				trackerIdx++
				s.Name = fmt.Sprintf("t%d.%s", trackerIdx, trackerSLDs[trackerIdx%len(trackerSLDs)])
				s.Party = cloud.PartyThird
				s.Tracker = true
			default:
				s.Name = fmt.Sprintf("ntpish%d.cdn-%s.example", trackerIdx, slug(pl.Dev.Manufacturer))
				s.Party = cloud.PartySupport
			}
			marked++
		}
	}
}

// eligibleFor selects which devices in a category can host domains of a
// class, with weights favouring complex devices.
func eligibleFor(cat []*Plan, class Class) ([]*Plan, []int) {
	var eligible []*Plan
	var weights []int
	for _, pl := range cat {
		p := pl.Dev
		ok := true
		switch class {
		case ClassV6Stay, ClassExt64, ClassSw64:
			// Contacted over v6 in the IPv6-only runs: needs working v6
			// resolution and global data there.
			ok = p.V6InternetData && !p.DualOnlyInternetData && !p.HardcodedV6Dest && p.DNSOverV6
		case ClassV6NonCommon:
			// As above, or a vendor-configured literal endpoint (the
			// gateways' DNS-free v6 destinations).
			ok = (p.V6InternetData && !p.DualOnlyInternetData && !p.HardcodedV6Dest && p.DNSOverV6) ||
				(p.HardcodedV6Dest && !p.DualOnlyInternetData)
		case ClassExt46, ClassSw46:
			// Gains v6 in dual-stack: needs v6 Internet data in dual-stack
			// and a way to learn (or preconfigure) the v6 endpoint there.
			ok = p.V6InternetData && (p.AAAA || p.DNSOverV6 || p.HardcodedV6Dest)
		case ClassV4WithAAAA:
			ok = p.AAAA
		case ClassHardcoded:
			ok = p.HardcodedV6Dest
		case ClassDNSOnly:
			ok = p.AAAA || p.DNSOverV6
		}
		if ok {
			w := p.DomainWeight + 1
			// Functional devices' destinations are far more AAAA-ready
			// than the rest (Table 7: 73% vs 31%); bias v6-class domains
			// toward them and v4-only classes away.
			switch {
			case p.FunctionalV6Only && v6Class(class):
				w *= 4
			case p.FunctionalV6Only && (class == ClassV4Stay || class == ClassV4NonCommon):
				w = (w + 1) / 2
			}
			eligible = append(eligible, pl)
			weights = append(weights, w)
		}
	}
	return eligible, weights
}

// apportion splits total across weights with the largest-remainder method.
// The result sums exactly to total; ties break by index (deterministic).
func apportion(total int, weights []int) []int {
	n := len(weights)
	out := make([]int, n)
	if n == 0 || total <= 0 {
		return out
	}
	sum := 0
	for _, w := range weights {
		sum += w
	}
	if sum == 0 {
		sum = n
		for i := range weights {
			weights[i] = 1
		}
	}
	assigned := 0
	type rem struct{ idx, num int }
	rems := make([]rem, n)
	for i, w := range weights {
		out[i] = total * w / sum
		assigned += out[i]
		rems[i] = rem{idx: i, num: total * w % sum}
	}
	// Distribute the remainder to the largest fractional parts.
	for assigned < total {
		best := -1
		for i := range rems {
			if rems[i].num >= 0 && (best == -1 || rems[i].num > rems[best].num) {
				best = i
			}
		}
		out[rems[best].idx]++
		rems[best].num = -1
		assigned++
	}
	return out
}

var classTag = map[Class]string{
	ClassV4Stay: "v4", ClassV4WithAAAA: "v4aaaa", ClassV4NonCommon: "v4x",
	ClassExt46: "e46", ClassSw46: "s46", ClassV6Stay: "v6",
	ClassV6NonCommon: "v6x", ClassExt64: "e64", ClassSw64: "s64",
	ClassDNSOnly: "alias", ClassHardcoded: "hc",
}

func addSpecs(pl *Plan, class Class, n int) {
	sld := vendorSLD(pl.Dev)
	dev := slug(pl.Dev.Name)
	// Hardcoded-endpoint devices reach their v6 destinations without DNS.
	noDNS := class == ClassHardcoded || (pl.Dev.HardcodedV6Dest && v6Class(class))
	for i := 0; i < n; i++ {
		party := cloud.PartyFirst
		// Roughly one domain in six is support infrastructure (CDNs).
		if i%6 == 5 {
			party = cloud.PartySupport
			sldAlt := "cdn-" + slug(pl.Dev.Manufacturer) + ".example"
			pl.Specs = append(pl.Specs, DomainSpec{
				Name:    fmt.Sprintf("%s-%s%d.%s", dev, classTag[class], i, sldAlt),
				Class:   class,
				HasAAAA: classHasAAAA(class),
				Party:   party,
				NoDNS:   noDNS,
			})
			continue
		}
		pl.Specs = append(pl.Specs, DomainSpec{
			Name:    fmt.Sprintf("%s-%s%d.%s", dev, classTag[class], i, sld),
			Class:   class,
			HasAAAA: classHasAAAA(class),
			Party:   party,
			NoDNS:   noDNS,
		})
	}
}

// addEssentials gives every device its primary-function destinations.
func addEssentials(pl *Plan) {
	p := pl.Dev
	sld := vendorSLD(p)
	dev := slug(p.Name)
	mk := func(label string, class Class, hasAAAA bool) DomainSpec {
		return DomainSpec{
			Name:      fmt.Sprintf("%s.%s", label, sld),
			Class:     class,
			HasAAAA:   hasAAAA,
			Party:     cloud.PartyFirst,
			Essential: true,
		}
	}
	switch {
	case p.FunctionalV6Only:
		// Essential domains are AAAA-ready and used over v6 everywhere.
		pl.Specs = append(pl.Specs,
			mk("api-"+dev, ClassExt64, true),
			mk("control-"+dev, ClassExt64, true))
	case p.Name == "SmartLife Hub":
		// The a2.tuyaus.com case: the essential domain has AAAA records
		// the device never asks for.
		s := mk("a2-"+dev, ClassV4Stay, true)
		s.AOnlyV6 = true
		pl.Specs = append(pl.Specs, s)
	default:
		// IPv4-only essential backend (the api.amazon.com pattern).
		// AAAA-capable devices still try to resolve it over v6, the
		// failure signature of §5.1.3.
		a := mk("api-"+dev, ClassV4Stay, false)
		b := mk("registry-"+dev, ClassV4Stay, false)
		a.QueryAAAA = p.AAAA
		b.QueryAAAA = p.AAAA
		pl.Specs = append(pl.Specs, a, b)
	}
}

// assignDNSBehaviour marks which names each device queries AAAA (and over
// which transport), which are A-only in v6, and adds alias names to reach
// the distinct-query-name targets of Table 6.
func assignDNSBehaviour(plans []*Plan, byCat map[int][]*Plan, scale func(total, ci int) int) {
	for ci := 0; ci < paper.NumCategories; ci++ {
		cat := byCat[ci]

		// 1. Natural AAAA successes: v6-contact classes resolve via AAAA,
		//    except hardcoded destinations and HTTPS-hint resolutions.
		//    HTTPS-capable devices shift their surplus to HTTPS lookups so
		//    the per-category AAAA-response name counts land on Table 6.
		natural := 0
		for _, pl := range cat {
			for si := range pl.Specs {
				s := &pl.Specs[si]
				if v6Class(s.Class) && !s.NoDNS {
					s.QueryAAAA = true
					natural++
				}
			}
		}
		surplus := natural - scale(aaaaResTargets[ci], ci)
		if surplus > 0 {
			for _, pl := range cat {
				if !pl.Dev.QueriesHTTPS || surplus == 0 {
					continue
				}
				kept := 0
				for si := range pl.Specs {
					s := &pl.Specs[si]
					if surplus == 0 {
						break
					}
					if s.QueryAAAA && v6Class(s.Class) {
						// Even HTTP/3 stacks keep issuing AAAA for a core
						// of names that must resolve in IPv6-only networks;
						// only the surplus moves to HTTPS.
						v6OnlyActive := s.Class == ClassV6Stay || s.Class == ClassV6NonCommon ||
							s.Class == ClassExt64 || s.Class == ClassSw64
						if kept < 8 && v6OnlyActive {
							kept++
							continue
						}
						s.QueryAAAA = false
						s.UseHTTPS = true
						surplus--
					}
				}
			}
		}
		// Count what we have now and top up with alias successes.
		success := 0
		for _, pl := range cat {
			for _, s := range pl.Specs {
				if s.QueryAAAA && s.HasAAAA {
					success++
				}
			}
		}
		if deficit := scale(aaaaResTargets[ci], ci) - success; deficit > 0 {
			eligible, weights := aliasEligible(cat, true)
			for i, n := range apportion(deficit, weights) {
				addAlias(eligible[i], n, true)
			}
			success += deficit
		}

		// 2. A-only-in-v6 names: distributed over AOnlyInV6 devices'
		//    v4-class specs (queried over the v6 resolver with A only).
		//    Assigned before the AAAA-failure budget so the names stay
		//    A-only.
		aOnly := scale(aOnlyV6Targets[ci], ci)
		for _, pl := range cat {
			for _, sp := range pl.Specs {
				if sp.AOnlyV6 {
					aOnly--
				}
			}
		}
		for _, perDevice := range []int{1, 1 << 20} {
			for _, pl := range cat {
				if aOnly <= 0 {
					break
				}
				if !pl.Dev.AOnlyInV6 || !pl.Dev.DNSOverV6 {
					continue
				}
				marked := 0
				for si := range pl.Specs {
					s := &pl.Specs[si]
					if aOnly <= 0 || marked >= perDevice {
						break
					}
					if !s.QueryAAAA && !v6Class(s.Class) && !s.AliasOnly && s.Class != ClassDNSOnly && !s.Essential && !s.AOnlyV6 {
						s.AOnlyV6 = true
						marked++
						aOnly--
					}
				}
			}
		}

		// 3. AAAA failures: remaining request-name budget goes to
		//    AAAA-queried names without AAAA records — v4-class specs
		//    first, alias names for the rest.
		failBudget := scale(aaaaReqTargets[ci], ci) - success
		for _, pl := range cat {
			for _, sp := range pl.Specs {
				if sp.QueryAAAA && !sp.HasAAAA {
					failBudget-- // essential failures already planned
				}
			}
		}
		for _, v4First := range []bool{true, false} {
			for _, pl := range cat {
				if failBudget <= 0 {
					break
				}
				if !pl.Dev.AAAA || pl.Dev.AAAAOverV4 != v4First {
					continue
				}
				for si := range pl.Specs {
					s := &pl.Specs[si]
					if failBudget <= 0 {
						break
					}
					if !s.QueryAAAA && !s.HasAAAA && !s.AOnlyV6 &&
						(s.Class == ClassV4Stay || s.Class == ClassV4NonCommon) {
						s.QueryAAAA = true
						failBudget--
					}
				}
			}
		}
		if failBudget > 0 {
			eligible, weights := aliasEligible(cat, false)
			for i, n := range apportion(failBudget, weights) {
				addAlias(eligible[i], n, false)
			}
		}

		// 4. V4-only AAAA transport: mark that many AAAA-queried names as
		//    v4-resolver-only. Names needed in the IPv6-only runs must stay
		//    v6-resolvable, so only v4-class failures and dual-stack-only v6
		//    classes (Ext46/Sw46, or anything on a dual-only-data device)
		//    qualify. The paper's Home Auto row asks for more names than the
		//    category ever queries (8 > 6); the count caps at what exists.
		v4only := scale(v4OnlyAAAATgts[ci], ci)
		for _, preferNoV6DNS := range []bool{true, false} {
			for _, pl := range cat {
				if v4only <= 0 {
					break
				}
				p := pl.Dev
				if !p.AAAAOverV4 || (preferNoV6DNS != !p.DNSOverV6) {
					continue
				}
				for si := range pl.Specs {
					s := &pl.Specs[si]
					if v4only <= 0 {
						break
					}
					if !s.QueryAAAA || s.AAAAViaV4Only {
						continue
					}
					v6OnlyExpClass := s.Class == ClassV6Stay || s.Class == ClassV6NonCommon ||
						s.Class == ClassExt64 || s.Class == ClassSw64
					if preferNoV6DNS || !v6OnlyExpClass || p.DualOnlyInternetData {
						s.AAAAViaV4Only = true
						v4only--
					}
				}
			}
		}
	}
}

// aliasEligible picks devices that can host alias names. Success aliases
// need a resolver path that actually answers (devices whose v4-transport
// AAAA queries succeed, or non-gateway v6 resolvers — the gateways' v6
// queries go unanswered, Table 3); failure aliases only need AAAA support.
func aliasEligible(cat []*Plan, success bool) ([]*Plan, []int) {
	var eligible []*Plan
	var weights []int
	for _, pl := range cat {
		p := pl.Dev
		ok := p.AAAA
		if success {
			ok = p.AAAARespOverV4 || (p.DNSOverV6 && p.Category != Gateway && p.AAAA)
		}
		if ok {
			eligible = append(eligible, pl)
			weights = append(weights, p.DomainWeight+1)
		}
	}
	return eligible, weights
}

func addAlias(pl *Plan, n int, hasAAAA bool) {
	dev := slug(pl.Dev.Name)
	sld := "cdn-" + slug(pl.Dev.Manufacturer) + ".example"
	tag := "aliasok"
	if !hasAAAA {
		tag = "aliasno"
	}
	for i := 0; i < n; i++ {
		pl.Specs = append(pl.Specs, DomainSpec{
			Name:      fmt.Sprintf("%s-%s%d.%s", dev, tag, i, sld),
			Class:     ClassDNSOnly,
			HasAAAA:   hasAAAA,
			Party:     cloud.PartySupport,
			QueryAAAA: true,
			AliasOnly: true,
		})
	}
}

// assignTrackers converts a slice of the functional devices' v4-only
// domains into third-party tracking destinations (§5.4.3): 13 tracker SLDs
// spread across the 8 functional devices.
func assignTrackers(plans []*Plan) {
	next := 0
	for _, pl := range plans {
		if !pl.Dev.FunctionalV6Only {
			continue
		}
		// Two tracker domains per functional device, cycling the SLD list.
		converted := 0
		for si := range pl.Specs {
			s := &pl.Specs[si]
			if converted == 2 {
				break
			}
			if (s.Class == ClassV4Stay || s.Class == ClassV4NonCommon) && !s.Essential && !s.Tracker && !s.AOnlyV6 {
				sldName := trackerSLDs[next%len(trackerSLDs)]
				next++
				s.Name = fmt.Sprintf("t%d.%s", next, sldName)
				s.Party = cloud.PartyThird
				s.Tracker = true
				converted++
			}
		}
	}
}

// assignVolumes computes per-device payload budgets so that the
// per-category IPv6 volume fractions of Table 6 (and the per-device shares
// of Figure 4) hold in dual-stack.
func assignVolumes(plans []*Plan, byCat map[int][]*Plan) {
	for ci := 0; ci < paper.NumCategories; ci++ {
		cat := byCat[ci]
		if len(cat) == 0 {
			continue
		}
		target := paper.Table6.V6VolumeFracPct[ci] / 100
		// Base budget scales with complexity.
		var v6Sum, v6Tot float64
		var zero []*Plan
		for _, pl := range cat {
			pl.TotalBytes = 20000 * (pl.Dev.DomainWeight + 1)
			if pl.Dev.DualV6Share > 0 {
				v6Sum += pl.Dev.DualV6Share * float64(pl.TotalBytes)
				v6Tot += float64(pl.TotalBytes)
			} else {
				zero = append(zero, pl)
			}
		}
		// Near-zero targets (the Gateway row prints 0.0% despite nonzero
		// v6 data): the v4-only hubs carry the bulk of the category's
		// volume, drowning the v6 trickle below rounding visibility.
		if target <= 0.002 && v6Sum > 0 {
			for _, pl := range zero {
				pl.TotalBytes *= 60
			}
		}
		if target > 0.002 && len(zero) > 0 && v6Sum > 0 {
			// Solve the v4-only devices' volume so the category fraction
			// lands on target: v6Sum / (v6Tot + n*T0) = target.
			t0 := (v6Sum/target - v6Tot) / float64(len(zero))
			if t0 < 1000 {
				t0 = 1000
			}
			for _, pl := range zero {
				pl.TotalBytes = int(t0)
			}
		}
		// Rescale the category's absolute volume so the study-wide total
		// fraction lands on the paper's 22.0%: TV/Entertainment and
		// speakers dominate smart-home traffic volume.
		shares := [paper.NumCategories]float64{1, 3, 42, 19, 1, 2, 32}
		const base = 10_000_000
		// Subset populations carry a proportional share of the category's
		// absolute volume (a household with 3 of the paper's 18 cameras
		// moves 3/18 of the camera bytes).
		pop := float64(len(cat)) / float64(paper.DevicesPerCategory[ci])
		var cur float64
		for _, pl := range cat {
			cur += float64(pl.TotalBytes)
		}
		factor := shares[ci] / 100 * base * pop / cur
		for _, pl := range cat {
			pl.TotalBytes = int(float64(pl.TotalBytes) * factor)
			pl.V6Bytes = int(pl.Dev.DualV6Share * float64(pl.TotalBytes))
			pl.V4Bytes = pl.TotalBytes - pl.V6Bytes
		}
	}
}
