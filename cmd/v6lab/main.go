// Command v6lab runs the full reproduction of "IoT Bricks Over v6"
// (IMC 2024) and prints the regenerated tables and figures.
//
// Usage:
//
//	v6lab [-artifact table3] [-pcap-dir captures/] [-firewall compare]
//	      [-fleet 100 -fleet-seed 1] [-resilience] [-fault lossy-wifi]
//	      [-adversary 200 -campaign-seed 3] [-horizon 7d]
//	      [-seed 1] [-workers 6]
//	      [-metrics metrics.json] [-progress]
//	      [-cpuprofile cpu.pprof] [-memprofile mem.pprof] [-list]
//
// -workers sizes every engine's worker pool (connectivity experiments,
// fleet homes, adversary campaign, resilience profiles, timeline homes);
// output is byte-identical for any value. Frames are buffered for pcaps
// only when -pcap-dir asks for them.
//
// Without -artifact, every artifact is printed in report order. The
// command takes no positional arguments; unknown flags or arguments exit
// non-zero with a usage message.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"v6lab"
	"v6lab/internal/adversary"
	"v6lab/internal/device"
	"v6lab/internal/faults"
	"v6lab/internal/telemetry"
	"v6lab/internal/timeline"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, runs the requested
// studies, and writes reports to stdout and progress/diagnostics to
// stderr, returning the process exit code (0 ok, 1 runtime failure,
// 2 usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("v6lab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	artifact := fs.String("artifact", "", "render a single artifact (e.g. table3, figure5); empty = all")
	pcapDir := fs.String("pcap-dir", "", "write one pcap file per connectivity experiment into this directory")
	csvDir := fs.String("csv-dir", "", "write plot-ready CSV series into this directory")
	list := fs.Bool("list", false, "list artifact names and exit")
	privacyExt := fs.Bool("privacy-ext", false, "ablation: force RFC 8981 privacy extensions on every device")
	forceDAD := fs.Bool("force-dad", false, "ablation: force RFC 4862 DAD compliance on every device")
	aaaaEverywhere := fs.Bool("aaaa-everywhere", false, "ablation: publish AAAA records for every destination")
	fwPolicy := fs.String("firewall", "", "re-run the §5.4.2 scan from a WAN vantage under an inbound-IPv6 policy: open|stateful|pinhole, or compare for all three")
	fleetN := fs.Int("fleet", 0, "simulate a population of N independent homes and render the fleet artifact")
	workers := fs.Int("workers", 0, "worker-pool size for every engine (connectivity, fleet, adversary, resilience, timeline); 0 = engine default; output is byte-identical for any value")
	fleetSeed := fs.Uint64("fleet-seed", 1, "fleet population seed; identical seeds reproduce the population exactly")
	adversaryN := fs.Int("adversary", 0, "attack a population of N homes: address discovery, campaign sweep, worm propagation; renders the adversary artifact")
	campaignSeed := fs.Uint64("campaign-seed", 1, "adversary campaign seed; identical seeds reproduce the attack exactly")
	resilience := fs.Bool("resilience", false, "re-run the connectivity grid under the impairment profiles and render the resilience artifact")
	horizonStr := fs.String("horizon", "", "run the long-horizon timeline over this much simulated time (e.g. 7d, 2w, 36h) and render the timeline artifact; -fleet N sizes the population (default 100)")
	faultName := fs.String("fault", "", "run the whole lab under one impairment profile: clean|lossy-wifi|clamped-tunnel|flaky-dnsmasq")
	seed := fs.Uint64("seed", 1, "impairment seed for -fault and -resilience; identical seeds reproduce runs byte-for-byte")
	devices := fs.String("devices", "", "comma-separated device names restricting the testbed (default: the full registry)")
	metricsPath := fs.String("metrics", "", "write the deterministic telemetry snapshot to this file after the run (.prom/.txt = Prometheus text format, otherwise JSON)")
	progress := fs.Bool("progress", false, "stream one line per completed experiment, fleet home, firewall policy, and resilience profile to stderr")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile (after the run) to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "v6lab: unknown argument %q (the command takes no subcommands)\n", fs.Arg(0))
		fs.Usage()
		return 2
	}

	if *list {
		for _, a := range v6lab.Artifacts {
			fmt.Fprintln(stdout, a)
		}
		return 0
	}

	if *artifact != "" && !knownArtifact(*artifact) {
		fmt.Fprintf(stderr, "v6lab: unknown artifact %q; known artifacts:\n", *artifact)
		for _, a := range v6lab.Artifacts {
			fmt.Fprintf(stderr, "  %s\n", a)
		}
		return 2
	}

	var fwPolicies []string
	switch strings.ToLower(*fwPolicy) {
	case "":
		// No firewall comparison.
	case "compare", "all":
		// Empty list = all default policies.
	case "open", "stateful", "pinhole":
		fwPolicies = []string{*fwPolicy}
	default:
		fmt.Fprintf(stderr, "v6lab: unknown firewall policy %q (want open|stateful|pinhole|compare)\n", *fwPolicy)
		return 2
	}

	if *fleetN < 0 {
		fmt.Fprintf(stderr, "v6lab: -fleet wants a positive home count, got %d\n", *fleetN)
		return 2
	}
	if *fleetSeed != 1 && *fleetN == 0 && *adversaryN == 0 && *horizonStr == "" {
		fmt.Fprintln(stderr, "v6lab: -fleet-seed only applies together with -fleet N, -adversary N, or -horizon")
		return 2
	}
	var horizon v6lab.Horizon
	if *horizonStr != "" {
		h, err := v6lab.ParseHorizon(*horizonStr)
		if err != nil {
			fmt.Fprintf(stderr, "v6lab: -horizon: %s\n", strings.TrimPrefix(err.Error(), "v6lab: "))
			return 2
		}
		horizon = h
	}
	if *adversaryN < 0 {
		fmt.Fprintf(stderr, "v6lab: -adversary wants a positive home count, got %d\n", *adversaryN)
		return 2
	}
	if *campaignSeed != 1 && *adversaryN == 0 {
		fmt.Fprintln(stderr, "v6lab: -campaign-seed only applies together with -adversary N")
		return 2
	}

	var labOpts []v6lab.Option
	if *devices != "" {
		var names []string
		for _, n := range strings.Split(*devices, ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			if device.Find(device.Registry(), n) == nil {
				fmt.Fprintf(stderr, "v6lab: unknown device %q (see the registry for names)\n", n)
				return 2
			}
			names = append(names, n)
		}
		labOpts = append(labOpts, v6lab.WithDevices(names...))
	}
	if *seed != 1 {
		labOpts = append(labOpts, v6lab.WithSeed(*seed))
	}
	if *faultName != "" {
		p, err := faults.ByName(*faultName)
		if err != nil {
			var names []string
			for _, fp := range faults.Grid() {
				names = append(names, fp.Name)
			}
			fmt.Fprintf(stderr, "v6lab: unknown fault profile %q (want %s)\n",
				*faultName, strings.Join(names, "|"))
			return 2
		}
		labOpts = append(labOpts, v6lab.WithFaultProfile(p))
	}
	// Only pcaps need buffered frames; analysis streams every frame
	// either way, so the report is the same without them.
	if *pcapDir != "" {
		labOpts = append(labOpts, v6lab.WithPcaps(v6lab.PcapDir(*pcapDir)))
	}
	if *workers < 0 {
		fmt.Fprintf(stderr, "v6lab: -workers wants a non-negative worker count\n")
		return 2
	}
	// One worker knob for everything: WithWorkers sizes the connectivity
	// engine and flows into the fleet/adversary parts below.
	if *workers > 0 {
		labOpts = append(labOpts, v6lab.WithWorkers(*workers))
	}
	if *metricsPath != "" {
		labOpts = append(labOpts, v6lab.WithTelemetry(telemetry.NewRegistry()))
	}
	if *progress {
		labOpts = append(labOpts, v6lab.WithProgress(telemetry.NewWriterSink(stderr)))
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(stderr, "CPU profile written to %s\n", *cpuprofile)
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(stderr, "error:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "error:", err)
				return
			}
			fmt.Fprintf(stderr, "heap profile written to %s\n", *memprofile)
		}()
	}

	lab := v6lab.New(append(labOpts, v6lab.WithAblation(v6lab.Options{
		ForcePrivacyExtensions: *privacyExt,
		ForceDAD:               *forceDAD,
		AAAAEverywhere:         *aaaaEverywhere,
	}))...)

	// writeMetrics exports the telemetry snapshot; it runs on every exit
	// path that follows a completed study, including the fleet-only and
	// resilience-only early returns.
	writeMetrics := func() int {
		if *metricsPath == "" {
			return 0
		}
		snap, ok := lab.TelemetrySnapshot()
		if !ok {
			return 0
		}
		var data []byte
		var err error
		if strings.HasSuffix(*metricsPath, ".prom") || strings.HasSuffix(*metricsPath, ".txt") {
			data = snap.Prometheus()
		} else {
			data, err = snap.JSON()
		}
		// The snapshot path may point into a directory that does not exist
		// yet (e.g. out/run-3/metrics.json on a fresh checkout).
		if err == nil {
			if dir := filepath.Dir(*metricsPath); dir != "." {
				err = os.MkdirAll(dir, 0o755)
			}
		}
		if err == nil {
			err = os.WriteFile(*metricsPath, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
		fmt.Fprintf(stderr, "metrics snapshot written to %s\n", *metricsPath)
		return 0
	}

	if *horizonStr != "" {
		homes := *fleetN
		if homes == 0 {
			homes = 100
		}
		fmt.Fprintf(stderr, "simulating %d homes over a %s horizon (seed %d, workers %d)...\n",
			homes, horizon, *fleetSeed, *workers)
		part := v6lab.Timeline(horizon,
			v6lab.TimelineConfig(timeline.Config{Homes: homes, Seed: *fleetSeed}))
		if err := lab.Run(part); err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
		// Like the fleet artifact, the timeline needs no single-home study:
		// with nothing else requested, render it and exit.
		if (*artifact == "" || *artifact == string(v6lab.TimelineStudy)) &&
			*pcapDir == "" && *csvDir == "" && *fwPolicy == "" && !*resilience && *adversaryN == 0 {
			if code := writeMetrics(); code != 0 {
				return code
			}
			return render(lab, v6lab.TimelineStudy, stdout, stderr)
		}
	}

	if *fleetN > 0 && *horizonStr == "" {
		fmt.Fprintf(stderr, "simulating a fleet of %d homes (seed %d, workers %d)...\n",
			*fleetN, *fleetSeed, *workers)
		if err := lab.Run(v6lab.Fleet(*fleetN, v6lab.Seed(*fleetSeed))); err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
		// The fleet artifact needs no single-home study: render and exit.
		if *artifact == string(v6lab.FleetStudy) && *pcapDir == "" && *csvDir == "" && *fwPolicy == "" && !*resilience && *adversaryN == 0 {
			if code := writeMetrics(); code != 0 {
				return code
			}
			return render(lab, v6lab.FleetStudy, stdout, stderr)
		}
	}

	if *adversaryN > 0 {
		fmt.Fprintf(stderr, "attacking a fleet of %d homes (fleet seed %d, campaign seed %d, workers %d)...\n",
			*adversaryN, *fleetSeed, *campaignSeed, *workers)
		err := lab.Run(v6lab.Adversary(*adversaryN,
			v6lab.Seed(*fleetSeed),
			v6lab.AdversaryConfig(adversary.Config{CampaignSeed: *campaignSeed})))
		if err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
		// Like the fleet artifact, the attack needs no single-home study:
		// with nothing else requested, render it and exit.
		if (*artifact == "" || *artifact == string(v6lab.AdversaryStudy)) &&
			*pcapDir == "" && *csvDir == "" && *fwPolicy == "" && *fleetN == 0 && !*resilience && *horizonStr == "" {
			if code := writeMetrics(); code != 0 {
				return code
			}
			return render(lab, v6lab.AdversaryStudy, stdout, stderr)
		}
	}

	if *resilience {
		fmt.Fprintln(stderr, "running the resilience impairment grid (profiles x connectivity configurations)...")
		if err := lab.Run(v6lab.Resilience()); err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
		// Like the fleet artifact, the grid needs no single-home study:
		// with nothing else requested, render it and exit.
		if (*artifact == "" || *artifact == string(v6lab.ResilienceStudy)) &&
			*pcapDir == "" && *csvDir == "" && *fwPolicy == "" && *fleetN == 0 && *adversaryN == 0 && *horizonStr == "" {
			if code := writeMetrics(); code != 0 {
				return code
			}
			return render(lab, v6lab.ResilienceStudy, stdout, stderr)
		}
	}

	fmt.Fprintln(stderr, "running the six connectivity experiments, active DNS queries, and port scans...")
	if err := lab.Run(); err != nil {
		fmt.Fprintln(stderr, "error:", err)
		return 1
	}
	for _, res := range lab.Study.Results {
		fmt.Fprintf(stderr, "  %-22s %6d frames captured\n", res.Config.ID, res.Frames())
	}
	if *pcapDir != "" {
		fmt.Fprintf(stderr, "pcaps written to %s\n", *pcapDir)
	}
	if *fwPolicy != "" {
		fmt.Fprintln(stderr, "running the WAN-vantage firewall policy comparison...")
		if err := lab.Run(v6lab.FirewallComparison(fwPolicies...)); err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
	}

	if *csvDir != "" {
		if err := lab.ExportCSV(*csvDir); err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
		fmt.Fprintf(stderr, "CSV series written to %s\n", *csvDir)
	}

	if code := writeMetrics(); code != 0 {
		return code
	}
	if *artifact != "" {
		return render(lab, v6lab.Artifact(*artifact), stdout, stderr)
	}
	fmt.Fprint(stdout, lab.FullReport())
	return 0
}

// render writes one artifact through the error-aware report API; an
// unknown artifact (possible only when the up-front check is bypassed)
// exits non-zero instead of printing a placeholder.
func render(lab *v6lab.Lab, a v6lab.Artifact, stdout, stderr io.Writer) int {
	out, err := lab.ReportErr(a)
	if err != nil {
		code := 1
		if errors.Is(err, v6lab.ErrUnknownArtifact) {
			code = 2
		}
		fmt.Fprintf(stderr, "v6lab: %v\n", err)
		return code
	}
	fmt.Fprint(stdout, out)
	return 0
}

func knownArtifact(name string) bool {
	for _, a := range v6lab.Artifacts {
		if string(a) == name {
			return true
		}
	}
	return false
}
