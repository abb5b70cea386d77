// Command perfbench is the v6lab benchmark. One run executes one named
// workload (study, fleet or timeline) through the public v6lab API, checks
// every output against its recorded sha256, and prints the workload's
// metrics as a JSON object on the last line of standard output: the
// end-to-end metrics by default, the per-layer ledger with --trace 1.
// METRICS.md lists every metric, its unit and the layer it belongs to.
//
// Run it from the repository root through the build script:
//
//	bash perfbench/run.sh --workload study --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// options is one invocation's parsed command line.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one invocation and returns the exit code: 0 when every unit
// succeeded and matched its recorded output, 1 on any failure, 2 on a bad
// command line.
func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseArgs(args)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	host := hostLine(o)
	fmt.Fprintln(stdout, host)
	fmt.Fprintln(stderr, host)
	var res result
	if o.trace {
		res, err = traced(o, stderr)
	} else {
		res, err = measured(o, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// parseArgs reads --workload, --seed, --seconds and --trace.
func parseArgs(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	workload := fs.String("workload", "", "workload to run")
	seed := fs.String("seed", "1", "seed the workload's inputs derive from")
	seconds := fs.Int("seconds", 15, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end measurement")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if _, ok := workloads[*workload]; !ok {
		return options{}, fmt.Errorf("unknown --workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	s, err := parseSeed(*seed)
	if err != nil {
		return options{}, err
	}
	if *seconds < 1 {
		return options{}, fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return options{}, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	return options{
		workload: *workload,
		seed:     s,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
	}, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// hostLine records where and how a result was measured.
func hostLine(o options) string {
	return fmt.Sprintf("# host nproc=%d gomaxprocs=%d cpu=%q go=%s %s/%s workload=%s seed=%d trace=%t",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(),
		runtime.GOOS, runtime.GOARCH, o.workload, o.seed, o.trace)
}

// cpuModel reads the processor name the kernel reports, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
