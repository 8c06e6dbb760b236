// Command characterize regenerates every figure of the paper's evaluation
// from a trace dataset: either a freshly synthesized one (-scale/-seed) or a
// file previously written by tracegen (-in).
//
// Usage:
//
//	characterize -scale 0.2                # generate and characterize
//	characterize -in trace.json            # characterize a saved dataset
//	characterize -in trace.csv -days 125
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("characterize: ")
	var (
		in       = flag.String("in", "", "input dataset (.csv or .json from tracegen); empty = generate")
		days     = flag.Float64("days", 125, "observation window for CSV inputs (days)")
		scale    = flag.Float64("scale", 0.1, "population scale when generating")
		seed     = flag.Uint64("seed", 1, "generator seed when generating")
		csvDir   = flag.String("csvdir", "", "optional directory to export every figure as CSV")
		compare  = flag.Bool("compare", false, "append the paper-vs-measured comparison table")
		markdown = flag.Bool("markdown", false, "emit ONLY the markdown paper-vs-measured table (for EXPERIMENTS.md)")
	)
	flag.Parse()

	ds, err := loadOrGenerate(*in, *days, *scale, *seed)
	if err != nil {
		log.Fatal(err)
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	if *markdown {
		rep := core.Characterize(ds.Columns(), 0)
		if err := report.RenderMarkdownComparison(w, rep); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Fprintf(w, "dataset: %d jobs, %d GPU jobs (>=30s), %d users, %d detailed series\n\n",
		len(ds.Jobs), len(ds.GPUJobs()), len(ds.Users()), len(ds.Series))
	if err := report.RenderTableI(w, cluster.SupercloudConfig()); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintln(w)
	rep := core.Characterize(ds.Columns(), 0)
	if err := report.RenderReport(w, rep); err != nil {
		log.Fatal(err)
	}
	if err := report.RenderArrivals(w, core.Arrivals(ds, 0)); err != nil {
		log.Fatal(err)
	}
	if *compare {
		fmt.Fprintln(w)
		if err := report.RenderPaperComparison(w, rep); err != nil {
			log.Fatal(err)
		}
	}
	if *csvDir != "" {
		if err := report.ExportCSVDir(*csvDir, rep); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "figure CSVs exported to %s\n", *csvDir)
	}
}

// loadOrGenerate reads a saved dataset or synthesizes a fresh one.
func loadOrGenerate(path string, days, scale float64, seed uint64) (*trace.Dataset, error) {
	if path == "" {
		cfg := workload.ScaledConfig(scale)
		cfg.Seed = seed
		g, err := workload.NewGenerator(cfg)
		if err != nil {
			return nil, err
		}
		return g.BuildDataset(g.GenerateSpecs()), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch {
	case strings.HasSuffix(path, ".json.gz"):
		return trace.ReadJSONGZ(f)
	case strings.HasSuffix(path, ".json"):
		return trace.ReadJSON(f)
	case strings.HasSuffix(path, ".csv.gz"), strings.HasSuffix(path, ".gz"):
		return trace.ReadCSVGZ(f, days)
	default:
		return trace.ReadCSV(f, days)
	}
}
