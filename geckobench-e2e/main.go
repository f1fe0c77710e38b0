// Command geckobench-e2e is the repository's end-to-end benchmark. It drives
// one of three seeded workloads through the public geckoftl.Device API,
// checks every output against a shadow model, and prints one JSON result
// line as the last line of standard output.
//
// Run it from the repository root:
//
//	bash geckobench-e2e/run.sh --workload sync-uniform --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics of a traced run, whose spans and CPU profile
// are written under .bench_build/trace. METRICS.md documents every workload
// and metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"time"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's single output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
		seed    = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds = flag.Int("seconds", 15, "host seconds of measured work to run")
		trace   = flag.Int("trace", 0, "0 reports end-to-end metrics; 1 runs traced and reports per-layer metrics")
		outDir  = flag.String("trace-dir", ".bench_build/trace", "directory the traced run writes spans and the CPU profile to")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: geckobench-e2e --workload %v --seed N --seconds S --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *outDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "geckobench-e2e: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "geckobench-e2e: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run measures one workload: rounds of set-up plus a fixed measured op
// stream, repeated until the measured phases have lasted budget. Every round
// replays the same stream on a freshly prefilled device, so its simulated
// figures must repeat bit-for-bit; host figures are medians over rounds. A
// traced run spends its first half untraced and its second half traced and
// reports the per-layer metrics.
func run(w *workload, seed int64, budget time.Duration, traced bool, outDir string) (*result, error) {
	b, err := newBench(context.Background(), w, seed)
	if err != nil {
		return nil, err
	}
	fmt.Printf("workload %s seed %d: %d logical pages, %d mapping-cache entries (%.1fx), hot set %d pages\n",
		w.name, seed, b.logical, cacheEntries, float64(b.logical)/cacheEntries, w.hotSet)

	var (
		plain, tracedRounds []*roundResult
		tr                  *tracer
	)
	if !traced {
		if plain, err = b.rounds(budget, 3, nil); err != nil {
			return nil, err
		}
	} else {
		if plain, err = b.rounds(budget/2, 1, nil); err != nil {
			return nil, err
		}
		if tr, err = startTracer(outDir, w.name); err != nil {
			return nil, err
		}
		tracedRounds, err = b.rounds(budget/2, 1, tr)
		if stopErr := tr.stop(); err == nil {
			err = stopErr
		}
		if err != nil {
			return nil, err
		}
	}

	all := append(slices.Clone(plain), tracedRounds...)
	res := &result{Correct: true, Metrics: map[string]metric{}}
	for i, r := range all {
		res.Attempted += r.attempted
		res.Failed += r.failed
		for _, msg := range r.incorrect {
			res.Correct = false
			fmt.Printf("INCORRECT (round %d): %s\n", i, msg)
		}
		if r.sim != all[0].sim {
			res.Correct = false
			fmt.Printf("INCORRECT: round %d simulated figures differ from round 0 for the same seed:\n  %+v\n  %+v\n", i, r.sim, all[0].sim)
		}
	}
	if msg := w.selfCheck(b, &all[0].sim); msg != "" {
		res.Correct = false
		fmt.Printf("INCORRECT: workload self-check: %s\n", msg)
	}
	f := all[0].sim
	fmt.Printf("%d rounds (%d traced); per round %d restarts and %d recoveries audited, %d audit failures; translation WA %.4f\n",
		len(all), len(tracedRounds), f.Restarts, f.Recoveries, f.AuditFailures, f.TranslationWA)

	if !traced {
		endToEnd(res.Metrics, plain)
	} else if err := perLayer(res.Metrics, b, tr, plain, tracedRounds); err != nil {
		return nil, err
	}
	for _, name := range slices.Sorted(maps.Keys(res.Metrics)) {
		m := res.Metrics[name]
		fmt.Printf("  %-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	return res, nil
}
