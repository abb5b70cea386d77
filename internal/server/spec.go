// Package server turns the v6lab library into a long-lived multi-tenant
// study service: an HTTP/JSON API that validates job specs, canonicalizes
// them into a stable options hash, and either serves results instantly
// from an LRU cache keyed by (seed, options-hash) or runs them on a shared
// bounded worker pool.
//
// The cache is sound because runs are byte-deterministic: the same seed
// and canonical options produce byte-identical reports, pcaps, CSV series,
// and telemetry snapshots at any worker count (asserted by the byte-identity
// tests in the root package), so a cached result is indistinguishable from
// a fresh run.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"v6lab"
	"v6lab/internal/device"
	"v6lab/internal/faults"
	"v6lab/internal/firewall"
)

// Job kinds accepted by POST /v1/jobs.
const (
	KindStudy      = "study"               // the six Table 2 connectivity experiments + analysis
	KindFirewall   = "firewall-comparison" // connectivity + the WAN-vantage policy comparison
	KindFleet      = "fleet"               // a population of independent homes
	KindResilience = "resilience"          // the impairment-profile grid
	KindAdversary  = "adversary"           // attacker's view of a fleet: discovery, campaign, worm
	KindTimeline   = "timeline"            // long-horizon event-scheduled population run
)

// Kinds lists the accepted job kinds.
var Kinds = []string{KindStudy, KindFirewall, KindFleet, KindResilience, KindAdversary, KindTimeline}

// JobSpec is the wire format of one study request. The zero value of
// every optional field selects the library default, so {"kind":"study"}
// is a complete specification of the paper's single-home study.
//
// Workers is deliberately excluded from the options hash: output is
// byte-identical at any worker count, so two requests differing only in
// Workers are the same experiment and share a cache entry.
type JobSpec struct {
	// Kind selects the study: study | firewall-comparison | fleet |
	// resilience.
	Kind string `json:"kind"`
	// Seed is the impairment/derivation seed (0 means the default 1).
	// It is the first half of the cache key.
	Seed uint64 `json:"seed,omitempty"`
	// Devices restricts the testbed to the named registry devices; empty
	// means the full 93-device registry. Order does not matter: the lab
	// keeps registry order regardless, so canonicalization sorts.
	Devices []string `json:"devices,omitempty"`
	// Fault names an impairment profile (clean | lossy-wifi |
	// clamped-tunnel | flaky-dnsmasq) applied to the whole run; empty
	// means the perfect network.
	Fault string `json:"fault,omitempty"`
	// Policies names the inbound-IPv6 firewall policies for
	// firewall-comparison jobs; empty means all three. Order matters
	// (it is report order), so canonicalization preserves it.
	Policies []string `json:"policies,omitempty"`
	// FleetHomes is the population size for fleet and adversary jobs.
	FleetHomes int `json:"fleet_homes,omitempty"`
	// FleetSeed derives the fleet population (0 means the default 1).
	FleetSeed uint64 `json:"fleet_seed,omitempty"`
	// CampaignSeed drives the adversary's probe ordering and worm draws
	// (0 means the default 1). Adversary jobs only.
	CampaignSeed uint64 `json:"campaign_seed,omitempty"`
	// Horizon is the simulated duration for timeline jobs ("7d", "2w",
	// "36h"). Required for kind timeline, rejected elsewhere; equivalent
	// spellings ("7d", "168h", "1w") canonicalize — and therefore hash —
	// identically.
	Horizon string `json:"horizon,omitempty"`
	// MaxFramesPerRun bounds each experiment's frame deliveries
	// (0 keeps the library default).
	MaxFramesPerRun int `json:"max_frames_per_run,omitempty"`
	// Workers sizes the engine's worker pool (0 means one worker for the
	// single-home engines, GOMAXPROCS for fleets). Not part of the
	// options hash: it changes wall time, never bytes.
	Workers int `json:"workers,omitempty"`
}

// Validate checks the spec against the registry and the known kinds,
// profiles, and policies. It does not mutate the spec; Canonicalize does.
func (s JobSpec) Validate() error {
	switch s.Kind {
	case KindStudy, KindFirewall, KindFleet, KindResilience, KindAdversary, KindTimeline:
	default:
		return fmt.Errorf("unknown kind %q (want %s)", s.Kind, strings.Join(Kinds, "|"))
	}
	for _, n := range s.Devices {
		if device.Find(device.Registry(), n) == nil {
			return fmt.Errorf("unknown device %q (see the registry for names)", n)
		}
	}
	if s.Fault != "" {
		if _, err := faults.ByName(s.Fault); err != nil {
			return err
		}
	}
	if len(s.Policies) > 0 && s.Kind != KindFirewall {
		return fmt.Errorf("policies only apply to kind %q", KindFirewall)
	}
	for _, p := range s.Policies {
		if _, err := firewall.ByName(p); err != nil {
			return err
		}
	}
	if s.Kind == KindFleet || s.Kind == KindAdversary || s.Kind == KindTimeline {
		if s.FleetHomes <= 0 {
			return fmt.Errorf("kind %q wants fleet_homes > 0, got %d", s.Kind, s.FleetHomes)
		}
	} else if s.FleetHomes != 0 || s.FleetSeed != 0 {
		return fmt.Errorf("fleet_homes and fleet_seed only apply to kinds %q, %q, and %q", KindFleet, KindAdversary, KindTimeline)
	}
	if s.CampaignSeed != 0 && s.Kind != KindAdversary {
		return fmt.Errorf("campaign_seed only applies to kind %q", KindAdversary)
	}
	if s.Kind == KindTimeline {
		if _, err := v6lab.ParseHorizon(s.Horizon); err != nil {
			return fmt.Errorf("kind %q wants a positive horizon (e.g. 7d, 2w, 36h): %w", KindTimeline, err)
		}
	} else if s.Horizon != "" {
		return fmt.Errorf("horizon only applies to kind %q", KindTimeline)
	}
	if s.MaxFramesPerRun < 0 {
		return fmt.Errorf("max_frames_per_run wants a non-negative bound, got %d", s.MaxFramesPerRun)
	}
	if s.Workers < 0 {
		return fmt.Errorf("workers wants a non-negative count, got %d", s.Workers)
	}
	return nil
}

// Canonicalize returns the spec in canonical form: defaults filled in,
// names normalized, devices sorted into registry order, and the empty
// policy list expanded to the three defaults. Two specs describing the
// same experiment canonicalize identically, so they hash identically —
// anything less would silently split the cache.
func (s JobSpec) Canonicalize() JobSpec {
	c := s
	c.Kind = strings.ToLower(strings.TrimSpace(c.Kind))
	if c.Seed == 0 {
		c.Seed = 1
	}
	c.Devices = canonicalDevices(c.Devices)
	c.Fault = strings.ToLower(strings.TrimSpace(c.Fault))
	if c.Fault == "clean" {
		// A clean profile is the perfect network: the same run as no
		// profile at all (asserted by the byte-identity tests).
		c.Fault = ""
	}
	if c.Kind == KindFirewall {
		if len(c.Policies) == 0 {
			c.Policies = []string{"open", "stateful", "pinhole"}
		} else {
			norm := make([]string, len(c.Policies))
			for i, p := range c.Policies {
				norm[i] = canonicalPolicy(p)
			}
			c.Policies = norm
		}
	}
	if (c.Kind == KindFleet || c.Kind == KindAdversary || c.Kind == KindTimeline) && c.FleetSeed == 0 {
		c.FleetSeed = 1
	}
	if c.Kind == KindAdversary && c.CampaignSeed == 0 {
		c.CampaignSeed = 1
	}
	c.Horizon = canonicalHorizon(c.Horizon)
	return c
}

// canonicalHorizon folds equivalent horizon spellings ("7d", "168h",
// "1w") onto one form so they share a cache entry. Invalid input is kept
// trimmed and lowercased — Canonicalize stays total; Validate rejects it.
func canonicalHorizon(s string) string {
	s = strings.ToLower(strings.TrimSpace(s))
	if s == "" {
		return ""
	}
	h, err := v6lab.ParseHorizon(s)
	if err != nil {
		return s
	}
	return h.String()
}

// canonicalDevices sorts names into registry order and drops duplicates.
// The lab preserves registry order regardless of the order given, so two
// permutations of the same set are the same experiment. An empty or
// full-registry list canonicalizes to nil (the default testbed).
func canonicalDevices(names []string) []string {
	if len(names) == 0 {
		return nil
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var out []string
	for _, p := range device.Registry() {
		if want[p.Name] {
			out = append(out, p.Name)
			delete(want, p.Name)
		}
	}
	// Unknown names (rejected by Validate) are kept, sorted, so that
	// Canonicalize stays total and deterministic even on invalid input.
	if len(want) > 0 {
		var rest []string
		for n := range want {
			rest = append(rest, n)
		}
		sort.Strings(rest)
		out = append(out, rest...)
	}
	if len(out) == len(device.Registry()) {
		return nil
	}
	return out
}

// canonicalPolicy folds firewall.ByName's aliases onto one spelling.
func canonicalPolicy(name string) string {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "stateful", "stateful-default-deny", "deny":
		return "stateful"
	case "open":
		return "open"
	case "pinhole":
		return "pinhole"
	}
	return strings.ToLower(strings.TrimSpace(name))
}

// hashedSpec is the canonical byte layout fed to the options hash: every
// output-affecting field except Seed (the cache key's other half), in
// declaration order, with no omitempty so absent and zero fields encode
// identically. Changing this struct changes every hash — the golden-hash
// test exists to make that loud.
type hashedSpec struct {
	Kind            string   `json:"kind"`
	Devices         []string `json:"devices"`
	Fault           string   `json:"fault"`
	Policies        []string `json:"policies"`
	FleetHomes      int      `json:"fleet_homes"`
	FleetSeed       uint64   `json:"fleet_seed"`
	CampaignSeed    uint64   `json:"campaign_seed"`
	Horizon         string   `json:"horizon"`
	MaxFramesPerRun int      `json:"max_frames_per_run"`
}

// OptionsHash returns the hex SHA-256 of the canonical options — every
// field that affects output bytes except the seed. Workers is excluded
// (byte-identical output at any worker count); Seed is excluded because
// it is the explicit first half of the cache key.
func (s JobSpec) OptionsHash() string {
	c := s.Canonicalize()
	blob, err := json.Marshal(hashedSpec{
		Kind:            c.Kind,
		Devices:         c.Devices,
		Fault:           c.Fault,
		Policies:        c.Policies,
		FleetHomes:      c.FleetHomes,
		FleetSeed:       c.FleetSeed,
		CampaignSeed:    c.CampaignSeed,
		Horizon:         c.Horizon,
		MaxFramesPerRun: c.MaxFramesPerRun,
	})
	if err != nil {
		// Marshalling a struct of strings and ints cannot fail.
		panic("server: marshalling canonical spec: " + err.Error())
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// Key is the result-cache key: the seed plus the hash of every other
// output-affecting option. Byte-determinism in exactly (seed, options)
// is what makes this key sound — see DESIGN.md.
type Key struct {
	Seed uint64 `json:"seed"`
	Hash string `json:"options_hash"`
}

// CacheKey returns the (seed, options-hash) key of the canonical spec.
func (s JobSpec) CacheKey() Key {
	c := s.Canonicalize()
	return Key{Seed: c.Seed, Hash: c.OptionsHash()}
}

// String renders the key for logs and job status.
func (k Key) String() string { return fmt.Sprintf("%d/%s", k.Seed, k.Hash[:12]) }
