package main

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// benchSpec is the part of BENCHMARK.json the A/B mode reads.
type benchSpec struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// side is one program under comparison: a benchmark binary linked against
// one source tree, and that tree's simcloudd.
type side struct {
	name, bench, simcloudd string
}

// runAB measures a parent commit against the change: both sides run the
// same benchmark code with the same settings, pair by pair, alternating
// which side goes first, and every (metric, workload) pair gets a verdict.
func runAB(args []string) error {
	fs := flag.NewFlagSet("perfbench ab", flag.ContinueOnError)
	var (
		root      = fs.String("root", ".", "checkout root of the change")
		simcloudd = fs.String("simcloudd", "", "the change's simcloudd binary")
		self      = fs.String("self", "", "the change's perfbench binary")
		parent    = fs.String("parent", "", "source tree of the parent commit (for example from `git worktree add`)")
		pairs     = fs.Int("pairs", 10, "parent/change pairs per workload; pair i runs on seed i+1")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parent == "" || *simcloudd == "" || *self == "" {
		return fmt.Errorf("-parent, -simcloudd and -self are required (run through run.sh ab -parent DIR)")
	}
	raw, err := os.ReadFile(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}

	out := filepath.Join(*root, ".bench_build", "ab")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	par, err := buildParent(*root, *parent, out)
	if err != nil {
		return err
	}
	sides := [2]side{par, {name: "change", bench: *self, simcloudd: *simcloudd}}

	// values[workload][metric][side][pair]
	values := map[string]map[string]*[2][]float64{}
	health := map[string]*sideHealth{}
	csvf, err := os.Create(filepath.Join(out, "runs.csv"))
	if err != nil {
		return err
	}
	defer csvf.Close()
	cw := csv.NewWriter(csvf)
	cw.Write([]string{"workload", "pair", "seed", "side", "order", "correct", "failed", "metric", "value", "unit"})
	for _, wl := range names {
		values[wl] = map[string]*[2][]float64{}
		h := &sideHealth{}
		health[wl] = h
		for i := 0; i < *pairs; i++ {
			seed := uint64(i + 1)
			order := [2]int{0, 1}
			if i%2 == 1 {
				order = [2]int{1, 0}
			}
			for k, s := range order {
				res, err := runSide(sides[s], *root, wl, seed, spec.RunSeconds)
				if err != nil {
					return fmt.Errorf("%s %s pair %d: %w", sides[s].name, wl, i, err)
				}
				h.failed[s] += res.Failed
				if !res.Correct {
					h.incorrect[s]++
				}
				for name, mv := range res.Metrics {
					v := values[wl][name]
					if v == nil {
						v = &[2][]float64{}
						values[wl][name] = v
					}
					v[s] = append(v[s], mv.Value)
					cw.Write([]string{wl, strconv.Itoa(i), strconv.FormatUint(seed, 10), sides[s].name, strconv.Itoa(k),
						strconv.FormatBool(res.Correct), strconv.Itoa(res.Failed), name, strconv.FormatFloat(mv.Value, 'g', -1, 64), mv.Unit})
				}
				fmt.Fprintf(os.Stderr, "%s pair %d %s: correct=%v\n", wl, i, sides[s].name, res.Correct)
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}

	fmt.Printf("%-14s %-12s %12s %12s %12s %12s %6s %-22s %s\n", "workload", "metric", "parent p50", "parent IQR", "change p50", "change IQR", "won", "ratio 95% CI", "verdict")
	for _, wl := range names {
		h := health[wl]
		fmt.Printf("%-14s incorrect runs: parent %d, change %d; failed operations: parent %d, change %d\n",
			wl, h.incorrect[0], h.incorrect[1], h.failed[0], h.failed[1])
		for _, m := range spec.EndToEnd {
			v := values[wl][m.Name]
			if v == nil {
				continue
			}
			p, c := v[0], v[1]
			ratios := &stats.Agg{}
			won := 0
			for i := range p {
				ratios.Add(c[i] / p[i])
				if better(m.Better, c[i], p[i]) {
					won++
				}
			}
			// The bootstrap behind engine.Summary.Rows, on the per-pair ratios.
			ci := ratios.MeanCI(2000, 0.95, 1)
			fmt.Printf("%-14s %-12s %12.5g %12.5g %12.5g %12.5g %5.0f%% [%.3f, %.3f] %s\n", wl, m.Name,
				stats.Median(p), iqr(p), stats.Median(c), iqr(c), 100*float64(won)/float64(len(p)),
				ci.Lo, ci.Hi, h.gate(verdict(p, c, m.Better, m.Bound)))
		}
	}
	fmt.Printf("raw runs: %s\n", filepath.Join(out, "runs.csv"))
	return nil
}

// sideHealth is what one workload's runs reported beyond their metrics, per
// side (0 = parent, 1 = change).
type sideHealth struct {
	incorrect [2]int // runs whose output check failed
	failed    [2]int // failed operations, summed over the runs
}

// gate overrides a metric's verdict with the runs' health: no verdict stands
// on a run whose outputs were wrong, and a gain does not count when the
// change fails more operations than the parent.
func (h *sideHealth) gate(v string) string {
	if h.incorrect[0] > 0 || h.incorrect[1] > 0 {
		return "unresolved"
	}
	if v == "improved" && h.failed[1] > h.failed[0] {
		return "unresolved"
	}
	return v
}

// buildParent compiles the parent tree's simcloudd and this benchmark's
// code linked against the parent tree (via an alternate go.mod), so both
// sides run identical benchmark code.
func buildParent(root, parent, out string) (side, error) {
	abs, err := filepath.Abs(parent)
	if err != nil {
		return side{}, err
	}
	s := side{name: "parent", bench: filepath.Join(out, "perfbench-parent"), simcloudd: filepath.Join(out, "simcloudd-parent")}
	gomod := filepath.Join(out, "go.parent.mod")
	mod := fmt.Sprintf("module repro/perfbench\n\ngo 1.22\n\nrequire repro v0.0.0\n\nreplace repro => %s\n", abs)
	if err := os.WriteFile(gomod, []byte(mod), 0o644); err != nil {
		return side{}, err
	}
	build := func(dir string, args ...string) error {
		cmd := exec.Command("go", append([]string{"build"}, args...)...)
		cmd.Dir = dir
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("go build %s in %s: %w", strings.Join(args, " "), dir, err)
		}
		return nil
	}
	if err := build(abs, "-o", s.simcloudd, "./cmd/simcloudd"); err != nil {
		return side{}, err
	}
	if err := build(filepath.Join(root, "_perfbench"), "-modfile="+gomod, "-o", s.bench, "."); err != nil {
		return side{}, err
	}
	return s, nil
}

// runSide runs one untraced benchmark run and parses its last line.
func runSide(s side, root, wl string, seed uint64, seconds float64) (*result, error) {
	cmd := exec.Command(s.bench, "-root", root, "-simcloudd", s.simcloudd, "--workload", wl,
		"--seed", strconv.FormatUint(seed, 10), "--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("no result line (exit: %v)", runErr)
	}
	return &res, nil
}

func better(dir string, a, b float64) bool {
	if dir == "lower" {
		return a < b
	}
	return a > b
}

func iqr(xs []float64) float64 { return stats.Quantile(xs, 0.75) - stats.Quantile(xs, 0.25) }

// minPairs is the fewest pairs a verdict other than unresolved rests on.
const minPairs = 10

// verdict applies the pairwise comparison rule: unresolved below minPairs
// pairs; improved when the change wins at least nine pairs in ten and the
// medians differ by more than the parent's own quartile spread; unresolved
// when the parent's spread is wider than the bound and the change does not
// beat every parent run outright; worse when the change's median is worse
// by more than the bound; unchanged otherwise.
func verdict(p, c []float64, dir string, bound float64) string {
	if len(p) < minPairs {
		return "unresolved"
	}
	won := 0
	for i := range p {
		if better(dir, c[i], p[i]) {
			won++
		}
	}
	mp, mc := stats.Median(p), stats.Median(c)
	spread := iqr(p)
	if float64(won) >= 0.9*float64(len(p)) && better(dir, mc, mp) && math.Abs(mc-mp) > spread {
		return "improved"
	}
	sp, sc := append([]float64(nil), p...), append([]float64(nil), c...)
	sort.Float64s(sp)
	sort.Float64s(sc)
	allBetter := sc[len(sc)-1] < sp[0]
	if dir == "higher" {
		allBetter = sc[0] > sp[len(sp)-1]
	}
	if spread/mp > bound && !allBetter {
		return "unresolved"
	}
	if (dir == "lower" && mc > mp*(1+bound)) || (dir == "higher" && mc < mp*(1-bound)) {
		return "worse"
	}
	return "unchanged"
}
