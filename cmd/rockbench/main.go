// Command rockbench regenerates every table and figure of the Rockhopper
// paper's evaluation (Section 6 plus the motivating Figures 1–3) on the
// simulated Spark substrate and prints the same rows/series the paper
// reports.
//
// Usage:
//
//	rockbench [-fig all|1|2|3|8|9|10|11|12|13|14|15|16|embedding|arch|applevel|ablations|guardrail|baselines|catalog|aqe]
//	          [-scale quick|paper] [-seed N] [-workers N]
//
// -scale quick (the default) runs reduced budgets suitable for a laptop
// minute; -scale paper uses the paper's run counts and horizons. -workers
// bounds the per-experiment worker pool (0 = NumCPU); results are
// byte-identical for any value.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/rockhopper-db/rockhopper/internal/experiments"
	"github.com/rockhopper-db/rockhopper/internal/parallel"
)

func main() {
	fig := flag.String("fig", "all", "which figure to regenerate (comma-separated list or 'all')")
	scale := flag.String("scale", "quick", "experiment scale: quick or paper")
	seed := flag.Uint64("seed", 0, "override the experiment seed (0 = per-figure default)")
	workers := flag.Int("workers", 0, "experiment worker pool size (0 = NumCPU; output identical for any value; values above NumCPU oversubscribe the cores and inflate the printed speedup estimate)")
	flag.Parse()

	paper := false
	switch *scale {
	case "quick":
	case "paper":
		paper = true
	default:
		fmt.Fprintf(os.Stderr, "rockbench: unknown scale %q (want quick or paper)\n", *scale)
		os.Exit(2)
	}

	want := map[string]bool{}
	for _, f := range strings.Split(*fig, ",") {
		want[strings.TrimSpace(f)] = true
	}
	all := want["all"]
	ran := 0
	run := func(name string, fn func()) {
		if !all && !want[name] {
			return
		}
		ran++
		//rocklint:allow wallclock -- benchmark wall-clock reporting; figure output is produced by seeded RNGs only
		start := time.Now()
		before := parallel.GlobalCounters()
		fn()
		//rocklint:allow wallclock -- benchmark wall-clock reporting; figure output is produced by seeded RNGs only
		wall := time.Since(start)
		delta := parallel.GlobalCounters().Sub(before)
		if delta.Finished > 0 {
			fmt.Printf("[%s done in %v; %d parallel runs, ~%.2fx estimated speedup over sequential]\n\n",
				name, wall.Round(time.Millisecond), delta.Finished,
				float64(delta.Busy)/float64(wall))
		} else {
			fmt.Printf("[%s done in %v]\n\n", name, wall.Round(time.Millisecond))
		}
	}

	// Budget helpers: quick scale divides the paper budgets.
	div := func(paperVal, quickVal int) int {
		if paper {
			return paperVal
		}
		return quickVal
	}

	run("1", func() {
		rows, parts := experiments.Fig01PartitionSweep(experiments.Fig01Params{Seed: *seed})
		experiments.PrintFig01(os.Stdout, rows, parts)
	})
	run("2", func() {
		experiments.Fig02NoisyBaselines(experiments.Fig02Params{
			Runs: div(200, 30), Iters: div(500, 120), Seed: *seed, Workers: *workers,
		}).Print(os.Stdout)
	})
	run("3", func() {
		experiments.Fig03ManualVsBO(experiments.Fig03Params{
			Users: div(50, 25), Iters: 40, Seed: *seed,
		}).Print(os.Stdout)
	})
	run("8", func() {
		experiments.PrintFig08(os.Stdout, experiments.Fig08SyntheticFunction(experiments.Fig08Params{Seed: *seed}))
	})
	run("9", func() {
		experiments.Fig09SurrogateLevels(experiments.Fig09Params{
			Runs: div(100, 20), Iters: div(500, 150), Seed: *seed, Workers: *workers,
		}).Print(os.Stdout)
	})
	run("10", func() {
		experiments.Fig10CLSVR(experiments.Fig10Params{
			Runs: div(100, 20), Iters: div(500, 150), Seed: *seed, Workers: *workers,
		}).Print(os.Stdout)
	})
	run("11", func() {
		experiments.Fig11DynamicWorkloads(experiments.Fig11Params{
			Runs: div(100, 15), Iters: div(500, 150), Seed: *seed, Workers: *workers,
		}).Print(os.Stdout)
	})
	run("12", func() {
		p := experiments.Fig12Params{Iters: 30, Seed: *seed}
		if paper {
			p.TargetQueries = []int{1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59}
			p.FlightRuns = 80
		}
		experiments.Fig12TransferLearning(p).Print(os.Stdout)
	})
	run("13", func() {
		p := experiments.Fig13Params{Iters: div(120, 60), Seed: *seed}
		if paper {
			p.Queries = []int{1, 2, 3, 5, 7, 11, 13, 17, 19, 23}
		}
		experiments.Fig13CLvsBO(p).Print(os.Stdout)
	})
	run("embedding", func() {
		p := experiments.EmbeddingAblationParams{Iters: div(30, 20), Seed: *seed}
		if !paper {
			p.TargetQueries = []int{1, 2, 3, 5, 7, 11, 13, 17}
			p.FlightRuns = 25
		}
		experiments.EmbeddingAblation(p).Print(os.Stdout)
	})
	run("14", func() {
		experiments.Fig14TPCH(experiments.Fig14Params{
			Iters: div(80, 40), FlightRuns: div(40, 20), Seed: *seed, Workers: *workers,
		}).Print(os.Stdout)
	})
	run("15", func() {
		experiments.FleetStudy(experiments.FleetParams{
			Signatures: div(60, 25), Iters: div(120, 50), Seed: *seed, Workers: *workers,
		}).Print(os.Stdout)
	})
	run("16", func() {
		// Production signatures ran "more than 30 iterations"; 45 keeps the
		// conservative guardrail's post-30 observation window faithful.
		experiments.FleetStudy(experiments.FleetParams{
			Signatures: div(416, 60), Iters: 45, Guardrail: true, Seed: *seed, Workers: *workers,
		}).Print(os.Stdout)
	})
	run("arch", func() {
		experiments.ArchRoundTrip(experiments.ArchParams{Iters: div(60, 30), Seed: *seed}).Print(os.Stdout)
	})
	run("applevel", func() {
		experiments.AppLevelJoint(experiments.AppLevelParams{Seed: *seed}).Print(os.Stdout)
	})
	run("aqe", func() {
		experiments.AQEStudy(experiments.AQEParams{Iters: div(80, 40), Seed: *seed}).Print(os.Stdout)
	})
	run("catalog", func() {
		experiments.CatalogStudy(experiments.CatalogParams{
			Queries: div(16, 6), Iters: div(80, 40), Seed: *seed,
		}).Print(os.Stdout)
	})
	run("baselines", func() {
		experiments.Baselines(experiments.BaselinesParams{
			Runs: div(20, 8), Iters: div(150, 80), Seed: *seed, Workers: *workers,
		}).Print(os.Stdout)
	})
	run("guardrail", func() {
		experiments.GuardrailAblation(experiments.GuardrailAblationParams{
			Signatures: div(60, 20), Iters: div(90, 50), Seed: *seed, Workers: *workers,
		}).Print(os.Stdout)
	})
	run("ablations", func() {
		experiments.Ablations(experiments.AblationParams{
			Runs: div(50, 10), Iters: div(300, 100), Seed: *seed, Workers: *workers,
		}).Print(os.Stdout)
	})

	if ran == 0 {
		fmt.Fprintf(os.Stderr, "rockbench: no experiment matched -fig=%s\n", *fig)
		os.Exit(2)
	}
}
