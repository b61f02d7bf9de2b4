// Command experiments regenerates the paper's tables and figures.
//
//	experiments -list
//	experiments -run fig4 [-scale 0.5] [-seed 42] [-epochs 20]
//	experiments -run all
//
// Output is the textual series/rows each figure plots; DESIGN.md's
// per-experiment index pairs each ID with the paper artifact it reproduces.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list experiments")
	run := flag.String("run", "all", "experiment id or 'all'")
	scale := flag.Float64("scale", 1.0, "dataset size multiplier")
	seed := flag.Int64("seed", 42, "seed")
	epochs := flag.Int("epochs", 0, "override epoch budgets (0 = per-dataset defaults)")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-10s %-28s %s\n", e.ID, e.Paper, e.Desc)
		}
		return
	}

	cfg := experiments.NewConfig(os.Stdout)
	cfg.Scale = *scale
	cfg.Seed = *seed
	cfg.Epochs = *epochs

	runOne := func(e experiments.Experiment) {
		start := time.Now()
		if err := e.Run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("[%s done in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	if *run == "all" {
		for _, e := range experiments.All() {
			runOne(e)
		}
		return
	}
	e, err := experiments.ByID(*run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		fmt.Fprintln(os.Stderr, "use -list to see available experiments")
		os.Exit(2)
	}
	runOne(e)
}
