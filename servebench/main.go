// Command servebench is the serving benchmark: it launches the built
// hftserve over loopback, drives one workload from a seeded open-loop
// schedule over at most two connections, verifies every response
// against the uncached DirectProvider oracle, and prints each
// end-to-end metric by name with its unit. With --trace 1 it instead
// replays the same seeded traffic in-process through each layer's
// public entry points (for hot-repeat also through a primary, a pull
// replica and the fleet front under corpus churn), writes the spans
// out, and prints the per-layer metrics.
//
// Usage (from the repository root; run.sh builds the binaries first):
//
//	bash servebench/run.sh --workload hot-repeat --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. A failed verification or workload
// self-check makes the command exit 1. Each run writes its schedule,
// corpora, logs and spans to .bench_build/servebench/<workload>-<seed>;
// --replay DIR re-runs a recorded schedule and corpora exactly.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what a run measured and found.
type report struct {
	result
	problems []string
	notes    []string // extra human-readable lines
}

// info prints a measured value that is not one of the result's
// metrics.
func (r *report) info(name string, v float64, unit string) {
	r.notes = append(r.notes, fmt.Sprintf("%-28s %14.4f %s (printed only, not in the result)", name, v, unit))
}

func (r *report) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "traffic and corpus seed")
	seconds := flag.Int("seconds", 40, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced in-process replay printing per-layer metrics")
	bin := flag.String("bin", ".bench_build/bin", "directory holding the built hftserve")
	outRoot := flag.String("out", ".bench_build/servebench", "directory for schedules, corpora, logs and spans")
	replay := flag.String("replay", "", "re-run the schedule and corpora recorded in this run directory")
	flag.Parse()

	w, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "servebench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	// unique-sweep's query space is sized for runs of up to 60 s.
	if *seconds < 1 || *seconds > 60 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "servebench: --seconds must be 1..60 and --trace 0 or 1")
		os.Exit(2)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()

	rep, err := execute(ctx, w, *seed, float64(*seconds), *trace == 1, *bin, *outRoot, *replay)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		os.Exit(1)
	}
	printReport(rep)
	if !rep.Correct {
		os.Exit(1)
	}
}

func execute(ctx context.Context, w Workload, seed uint64, seconds float64, traced bool, bin, outRoot, replayDir string) (*report, error) {
	r := &run{w: w, bin: bin}
	if replayDir != "" {
		s, err := readSchedule(replayDir)
		if err != nil {
			return nil, err
		}
		if s.Workload != w.Name {
			return nil, fmt.Errorf("%s records workload %s, not %s", replayDir, s.Workload, w.Name)
		}
		r.sched, r.dir = s, replayDir
	} else {
		r.dir = filepath.Join(outRoot, fmt.Sprintf("%s-%d", w.Name, seed))
		if traced {
			r.dir += "-trace"
		}
		if err := os.RemoveAll(r.dir); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(r.dir, 0o755); err != nil {
			return nil, err
		}
		r.sched = makeSchedule(w, seed, seconds)
		if err := writeJSONFile(filepath.Join(r.dir, "schedule.json"), r.sched); err != nil {
			return nil, err
		}
	}
	if traced {
		return r.traced(ctx)
	}
	if _, err := os.Stat(filepath.Join(bin, "hftserve")); err != nil {
		return nil, fmt.Errorf("missing binary (build it with servebench/run.sh): %w", err)
	}
	return r.endToEnd(ctx)
}

func printReport(rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Printf("%-28s %14.4f %s\n", n, m.Value, m.Unit)
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	for _, p := range rep.problems {
		fmt.Println("FAIL:", p)
	}
	rep.Correct = len(rep.problems) == 0
	b, _ := json.Marshal(rep.result)
	fmt.Println(string(b))
}
