// Package world builds the immutable half of a simulation: the device
// population, its workload plans, the cloud primed with every planned
// destination domain, and the MAC-to-device index. A World is constructed
// once per study, fleet subset, or campaign home and then shared read-only
// across workers, runs, and rebuilds — the per-run mutable state (stacks,
// switches, clocks, captures) lives in the experiment package's pooled
// environments instead.
//
// Immutability contract: a World is finished by whoever built it before
// any study reads it (v6lab.New applies its ablations then), and nothing
// writes it once a study over it exists.
package world

import (
	"v6lab/internal/cloud"
	"v6lab/internal/device"
	"v6lab/internal/packet"
	"v6lab/internal/router"
)

// World is the shared immutable input of a simulation run.
type World struct {
	// Profiles is the device population, in stack index order.
	Profiles []*device.Profile
	// Plans holds each device's workload plan, parallel to Profiles.
	Plans []*device.Plan
	// Cloud is the master simulated Internet, primed with every planned
	// destination. Studies over a shared World serve traffic through
	// Clones of it (private query counters, shared registry).
	Cloud *cloud.Cloud
	// MACToDevice resolves capture frames back to device identities.
	MACToDevice map[packet.MAC]*device.Profile
	// Prefixes are the LAN's GUA and ULA prefixes.
	Prefixes device.NetPrefixes
}

// Build constructs a World for the given device population; nil means the
// full registry. The construction order (plans, then domains in plan
// order) is the byte-identity anchor: cloud endpoint addresses are
// allocated in AddDomain call order, so Build must visit specs exactly
// the way study construction always has.
func Build(profiles []*device.Profile) *World {
	if profiles == nil {
		profiles = device.Registry()
	}
	plans := device.BuildPlans(profiles)
	cl := cloud.New()
	for _, pl := range plans {
		for _, sp := range pl.Specs {
			cl.AddDomain(sp.Name, sp.Party, sp.HasAAAA, sp.Tracker)
		}
	}
	m := make(map[packet.MAC]*device.Profile, len(profiles))
	for i, p := range profiles {
		m[device.MACFor(p, i)] = p
	}
	return &World{
		Profiles:    profiles,
		Plans:       plans,
		Cloud:       cl,
		MACToDevice: m,
		Prefixes:    device.NetPrefixes{GUA: router.GUAPrefix, ULA: router.ULAPrefix},
	}
}
