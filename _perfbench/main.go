// Command perfbench is the repository's benchmark. It runs one named
// workload from a seed, checks the program's outputs, and prints every
// end-to-end metric (or, with -trace 1, every per-layer metric) as the last
// line of standard output:
//
//	{"correct": true, "attempted": 8, "failed": 0, "metrics": {"jobs_per_s": {"value": 61234.5, "unit": "1/s"}, ...}}
//
// Build and run it through run.sh, which compiles simcloudd and this command
// from the checkout's sources:
//
//	bash _perfbench/run.sh --workload sim-paper --seed 1 --seconds 10 --trace 0
//	bash _perfbench/run.sh ab --parent /path/to/parent-worktree --pairs 10
//
// See README.md in this directory for the workloads, the metrics and the
// layer breakdown of the traced run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload needs from the command line.
type env struct {
	root      string // checkout root; all files the run writes go under root/.bench_build
	simcloudd string // path of the simcloudd binary under test
	workload  string
	seed      uint64
	seconds   float64
	work      string // scratch directory of this run, removed at exit
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "ab" {
		if err := runAB(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench ab:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(args []string) (*result, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		root      = fs.String("root", ".", "checkout root")
		simcloudd = fs.String("simcloudd", "", "simcloudd binary to run as the server under test")
		wl        = fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed      = fs.Uint64("seed", 1, "input seed")
		seconds   = fs.Float64("seconds", 10, "measured run length in seconds")
		traced    = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	w, ok := workloads[*wl]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", *wl, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	abs, err := filepath.Abs(*root)
	if err != nil {
		return nil, err
	}
	e := &env{root: abs, simcloudd: *simcloudd, workload: *wl, seed: *seed, seconds: *seconds}
	base := filepath.Join(abs, ".bench_build", "runs")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	if e.work, err = os.MkdirTemp(base, *wl+"-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.work)

	ctx := context.Background()
	if *traced == 1 {
		return w.traced(ctx, e)
	}
	return w.untraced(ctx, e)
}

// runner is one named workload with its untraced and traced runs.
type runner interface {
	untraced(context.Context, *env) (*result, error)
	traced(context.Context, *env) (*result, error)
}

var workloads = map[string]runner{
	"sim-paper":     simPaper,
	"sim-contended": simContended,
	"ingest":        ingestWL,
	"ingest-query":  ingestQueryWL,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printMetrics writes one human-readable line per metric, sorted by name.
func printMetrics(title string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println(title)
	for _, n := range names {
		fmt.Printf("  %-30s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
