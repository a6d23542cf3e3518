// Command perfbench is relser's benchmark. It builds one of three
// banking workloads from a seed, runs it closed loop through the
// public entry point (workload.Workload.RunWithContext) for a fixed
// wall-clock budget, checks every run's outputs, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1)
// by name with their units. The last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics.
//
// Run it from the repository root through run.sh, which builds this
// module first:
//
//	bash perfbench/run.sh --workload rsgt-banking --seed 1 --seconds 35 --trace 0
//
// README.md in this directory lists the workloads, the metrics, the
// layer each per-layer metric belongs to, and the baseline numbers.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: allowed worsening, as a share of the parent's median
}

// endToEnd are the metrics a user of the system sees, measured on
// untraced rounds.
var endToEnd = []metricDef{
	{"commit_tps", "1/s", "higher", 0.25},
	{"commit_p50_us", "us", "lower", 0.25},
	{"commit_p99_us", "us", "lower", 0.25},
	{"allocs_per_txn", "count", "lower", 0.15},
	{"heap_peak_mb", "MB", "lower", 0.15},
	{"verify_s", "s", "lower", 0.25},
	{"recover_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the single-layer metrics of the traced run, grouped by
// the layer they measure (README.md pairs each with the end-to-end
// metric it should move).
var perLayer = []metricDef{
	{name: "engine.self_ns_per_txn", unit: "ns", better: "lower"},
	{name: "engine.restarts_per_txn", unit: "1/txn", better: "lower"},
	{name: "engine.blocks_per_txn", unit: "1/txn", better: "lower"},
	{name: "engine.commit_waits_per_txn", unit: "1/txn", better: "lower"},
	{name: "engine.abort_ratio", unit: "ratio", better: "lower"},
	{name: "sched.request_ns_p50", unit: "ns", better: "lower"},
	{name: "sched.request_ns_p99", unit: "ns", better: "lower"},
	{name: "sched.request_busy_share", unit: "share", better: "lower"},
	{name: "sched.busy_share", unit: "share", better: "lower"},
	{name: "sched.commit_ns_p50", unit: "ns", better: "lower"},
	{name: "sched.grant_ratio", unit: "ratio", better: "higher"},
	{name: "sched.block_ratio", unit: "ratio", better: "lower"},
	{name: "graph.fastpath_hit_ratio", unit: "ratio", better: "higher"},
	{name: "graph.peak_live_vertices", unit: "count", better: "lower"},
	{name: "graph.retired_per_txn", unit: "1/txn", better: "higher"},
	{name: "graph.rebases_per_ktxn", unit: "1/ktxn", better: "lower"},
	{name: "storage.apply_ns_p50", unit: "ns", better: "lower"},
	{name: "storage.apply_busy_share", unit: "share", better: "lower"},
	{name: "storage.wal.append_ns_p50", unit: "ns", better: "lower"},
	{name: "storage.wal.sync_wait_ns_p50", unit: "ns", better: "lower"},
	{name: "storage.wal.sync_wait_ns_p99", unit: "ns", better: "lower"},
	{name: "storage.wal.fsync_ns_p50", unit: "ns", better: "lower"},
	{name: "storage.wal.busy_share", unit: "share", better: "lower"},
	{name: "storage.wal.commits_per_fsync", unit: "1/fsync", better: "higher"},
	{name: "storage.wal.bytes_per_txn", unit: "B/txn", better: "lower"},
	{name: "obs.events_per_txn", unit: "1/txn", better: "lower"},
	{name: "obs.spans_per_txn", unit: "1/txn", better: "lower"},
	{name: "obs.overhead_share", unit: "share", better: "lower"},
	{name: "core.schedule_build_s", unit: "s", better: "lower"},
	{name: "core.rsg_build_s", unit: "s", better: "lower"},
	{name: "core.rsg_arcs_per_op", unit: "1/op", better: "lower"},
	{name: "trace.overhead_share", unit: "share", better: "lower"},
	{name: "trace.accounting_error", unit: "share", better: "lower"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: rsgt-banking, rsgt-banking-obs or s2pl-durable-transfers")
	seed := fs.Int64("seed", 1, "seed the workload's programs and the driver's schedule are drawn from")
	seconds := fs.Int("seconds", 35, "wall-clock budget of the measured rounds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, ok := lookupSpec(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	traced := *traceFlag == 1

	buildDir := os.Getenv("BENCH_BUILD_DIR")
	if buildDir == "" {
		buildDir = ".bench_build"
	}
	if err := os.MkdirAll(filepath.Join(buildDir, "tmp"), 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp(filepath.Join(buildDir, "tmp"), "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	if !spec.concurrent {
		// The deterministic driver's load is one goroutine. With a second
		// P the GC would borrow a core the shared host may or may not
		// give, and the round's time would follow the neighbours' load;
		// on one P it follows the program's own work, GC included.
		runtime.GOMAXPROCS(1)
	}
	heap := startHeapSampler(time.Millisecond)
	b := &bench{spec: spec, seed: *seed, tmp: tmp, heap: heap}
	rep := b.measure(context.Background(), time.Duration(*seconds)*time.Second, traced)
	heap.close()
	defer b.close()

	if traced {
		if path, err := b.writeSpans(filepath.Join(buildDir, "spans")); err != nil {
			rep.problems = append(rep.problems, fmt.Sprintf("writing spans: %v", err))
		} else if path != "" {
			fmt.Fprintf(stdout, "spans of the last traced round: %s\n", path)
		}
	}
	for _, p := range rep.problems {
		fmt.Fprintf(stderr, "perfbench: FAIL %s seed %d: %s\n", spec.name, *seed, p)
	}
	b.printSummary(stdout, rep)
	e2e, layer := rep.metrics()
	out, defs := e2e, endToEnd
	if traced {
		out, defs = layer, perLayer
	}
	printMetrics(stdout, defs, out)
	if !traced {
		for _, d := range endToEnd {
			if v, ok := rep.unscaled[d.name]; ok {
				fmt.Fprintf(stdout, "  %-32s %16.6g %s unscaled\n", d.name, v, d.unit)
			}
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(rep.problems) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		result.Metrics[d.name] = value{out[d.name], d.unit}
	}
	line, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !result.Correct {
		return 1
	}
	return 0
}

func printMetrics(w io.Writer, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-32s %16.6g %s\n", d.name, values[d.name], d.unit)
	}
}
