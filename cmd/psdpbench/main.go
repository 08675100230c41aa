// Command psdpbench regenerates the paper experiment tables (E1–E16;
// `psdpbench -list` names them, README's Benchmarks section says how
// to run them) and the sections of the committed benchmark baseline
// BENCH_psdp.json.
//
// Usage:
//
//	psdpbench                  # run every experiment at full size
//	psdpbench -table E3        # run one experiment
//	psdpbench -quick           # small sizes (what the test suite runs)
//	psdpbench -seed 7          # change the deterministic seed
//	psdpbench -list            # list experiment ids
//	psdpbench -section kernels # time the hot-path kernels at GOMAXPROCS
//	                           # 1 vs N and merge them into -bench-out;
//	                           # -baseline FILE gates them against FILE
//	                           # (full sizes, same num_cpu/gomaxprocs)
//	psdpbench -section engines # likewise: engines, mixed, obs (each
//	                           # gates its own claims)
//
// Each section merges only its own keys into -bench-out, leaving every
// other section of the file byte-identical.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	table := flag.String("table", "", "run only this experiment id (e.g. E3); empty = all")
	quick := flag.Bool("quick", false, "use reduced instance sizes")
	seed := flag.Uint64("seed", 2012, "deterministic seed for all randomness")
	list := flag.Bool("list", false, "list experiments and exit")
	section := flag.String("section", "", "benchmark section to measure, gate and merge into -bench-out: kernels, engines, mixed or obs; empty runs the experiments")
	baseline := flag.String("baseline", "", "-section kernels, full sizes: gate the fresh kernels against this report, measured at the same num_cpu and gomaxprocs (fail on >1.05x ns/op at n>=256 or a new allocation)")
	benchOut := flag.String("bench-out", "BENCH_psdp.json", "file the -section report is merged into")
	flag.Parse()

	if *baseline != "" && *section != "kernels" {
		fmt.Fprintln(os.Stderr, "psdpbench: -baseline applies to -section kernels only")
		os.Exit(2)
	}
	// The gate reads only n >= 256, and the quick sizes are not in a
	// full-size baseline, so a quick gate could only fail on their
	// allocation rows.
	if *baseline != "" && *quick {
		fmt.Fprintln(os.Stderr, "psdpbench: -baseline gates the full kernel sizes; drop -quick")
		os.Exit(2)
	}
	if *section != "" {
		var err error
		switch *section {
		case "kernels":
			// 127 and 257 are non-multiples of every tile, panel, and
			// k-chunk dimension, so the edge/remainder paths are timed,
			// not just the full-tile fast paths.
			sizes := []int{127, 256, 257, 512, 1024}
			if *quick {
				sizes = []int{64, 128}
			}
			err = runKernelBench(*benchOut, *baseline, sizes, *seed)
		case "engines":
			err = runEngineBench(*benchOut, *quick, *seed)
		case "mixed":
			err = runMixedBench(*benchOut, *quick, *seed)
		case "obs":
			err = runObsBench(*benchOut, *quick, *seed)
		default:
			fmt.Fprintf(os.Stderr, "psdpbench: unknown section %q (want kernels, engines, mixed or obs)\n", *section)
			os.Exit(2)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "psdpbench: %s benchmark failed: %v\n", *section, err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-4s %s\n", r.ID, r.Name)
		}
		return
	}

	cfg := experiments.Config{Quick: *quick, Seed: *seed}
	runners := experiments.All()
	if *table != "" {
		r := experiments.ByID(*table)
		if r == nil {
			fmt.Fprintf(os.Stderr, "psdpbench: unknown experiment %q (try -list)\n", *table)
			os.Exit(2)
		}
		runners = []experiments.Runner{*r}
	}

	failed := 0
	for _, r := range runners {
		start := time.Now()
		tbl, err := r.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "psdpbench: %s failed: %v\n", r.ID, err)
			failed++
			continue
		}
		fmt.Print(tbl.Render())
		fmt.Printf("(%s in %s)\n\n", r.ID, time.Since(start).Round(time.Millisecond))
	}
	if failed > 0 {
		os.Exit(1)
	}
}
