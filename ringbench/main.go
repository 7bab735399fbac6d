// Command ringbench is the repository's benchmark. It drives the
// ringsimd daemon and ringsim-worker processes, built from the same
// checkout, over loopback HTTP from one client process with at most two
// connections, checks every answer, and prints every metric by name with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate traced run replays the workload through each layer's public
// functions and reports per-layer costs instead (see README.md).
//
// Usage (from the checkout root, through the launcher that builds the
// binaries first):
//
//	bash ringbench/run.sh -workload sweep-cold -seed 1 -seconds 20 -trace 0
//	bash ringbench/run.sh -selftest
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloads maps each workload name to its runner. A runner measures for
// roughly the given number of seconds and fills in an outcome.
var workloads = map[string]func(e *env, seed uint64, seconds float64, traced bool) (*outcome, error){
	"sweep-cold":      runSweepCold,
	"serve-warm-open": runServeWarm,
	"explore-cold":    runExploreCold,
	"fleet-sweep":     runFleetSweep,
}

// e2eUnits and layerUnits name every metric the benchmark reports, with
// its unit. BENCHMARK.json lists the same names; -selftest checks both.
var e2eUnits = map[string]string{
	"setup_s":         "s",
	"sim_minst_per_s": "Minst/s",
	"wall_s":          "s",
	"p50_ms":          "ms",
	"p99_ms":          "ms",
	"goodput_rps":     "1/s",
	"ok_frac":         "frac",
	"peak_rss_mb":     "MiB",
}

var layerUnits = map[string]string{
	"results.key_us":                 "us",
	"results.encode_us":              "us",
	"results.decode_us":              "us",
	"results.store_get_us":           "us",
	"results.store_put_us":           "us",
	"journal.append_us":              "us",
	"journal.open_ms":                "ms",
	"server.queue_wait_ms":           "ms",
	"server.cache_hit_frac":          "frac",
	"server.journal_entries_per_req": "count",
	"trace.gen_minst_per_s":          "Minst/s",
	"harness.trace_cache_mb":         "MiB",
	"harness.trace_cache_hit_frac":   "frac",
	"harness.execute_minst_per_s":    "Minst/s",
	"harness.batch_runs_frac":        "frac",
	"core.fetch_frac":                "frac",
	"core.dispatch_frac":             "frac",
	"core.issue_frac":                "frac",
	"core.writeback_frac":            "frac",
	"core.commit_frac":               "frac",
	"harness.sampled_minst_per_s":    "Minst/s",
	"harness.sampled_detailed_frac":  "frac",
	"core.ff_frac":                   "frac",
	"predict.profile_ms":             "ms",
	"predict.score_us":               "us",
	"predict.twin_mape_pct":          "%",
	"harness.sampled_ipc_err_pct":    "%",
	"dse.sims_avoided_frac":          "frac",
	"dse.sampled_eval_s":             "s",
	"dse.exact_confirm_s":            "s",
	"fleet.remote_runs":              "count",
	"fleet.requeues":                 "count",
	"fleet.trace_fetches":            "count",
	"fleet.trace_regens":             "count",
	"fleet.worker_run_ms":            "ms",
	"fleet.idle_frac":                "frac",
	"load.gen_late_ms_p99":           "ms",
	"bench.trace_overhead_frac":      "frac",
}

// outcome is what one workload run reports.
type outcome struct {
	attempted int
	failed    int
	problems  []string
	metrics   map[string]float64
	// table holds human-readable lines printed before the JSON line.
	table []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

func (o *outcome) addf(format string, args ...any) {
	o.table = append(o.table, fmt.Sprintf(format, args...))
}

// tiny shrinks every workload for -selftest.
var tiny bool

func main() {
	root := flag.String("root", ".", "checkout root")
	bin := flag.String("bin", ".bench_build/bin", "directory holding ringsimd and ringsim-worker")
	name := flag.String("workload", "", "workload: sweep-cold, serve-warm-open, explore-cold or fleet-sweep")
	seed := flag.Uint64("seed", 1, "workload seed; the program only ever sees inputs derived from it")
	seconds := flag.Float64("seconds", 20, "how long one run measures")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	selftest := flag.Bool("selftest", false, "run every workload at tiny sizes in both modes and check that every metric is emitted with its unit")
	replay := flag.String("replay", "", "internal: run the in-process layer replay of a workload and write its report to this file")
	spans := flag.Int("spans", 1, "internal: with -replay, 1 records spans, 0 does not")
	flag.Parse()

	e, err := newEnv(*root, *bin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ringbench:", err)
		os.Exit(1)
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		e.cleanup()
		os.Exit(1)
	}()
	code := 0
	if *replay != "" {
		// A child of a traced run; -selftest selects the tiny sizes.
		tiny = *selftest
		if err := runReplay(e, *name, *seed, *seconds, *spans == 1, *replay); err != nil {
			fmt.Fprintln(os.Stderr, "ringbench:", err)
			code = 1
		}
	} else if *selftest {
		tiny = true
		code = runSelftest(e)
	} else {
		code = runOne(e, *name, *seed, *seconds, *trace == 1)
	}
	e.cleanup()
	os.Exit(code)
}

// runOne runs one workload and prints its table and JSON line.
func runOne(e *env, name string, seed uint64, seconds float64, traced bool) int {
	run, ok := workloads[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "ringbench: unknown workload %q\n", name)
		return 2
	}
	t0 := time.Now()
	out, err := run(e, seed, seconds, traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ringbench: %s: %v\n", name, err)
		return 1
	}
	units := e2eUnits
	if traced {
		units = layerUnits
	}
	for _, line := range out.table {
		fmt.Println(line)
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "ringbench: check failed:", p)
	}
	metrics := map[string]map[string]any{}
	for m, unit := range units {
		v, ok := out.metrics[m]
		if !ok {
			fmt.Fprintf(os.Stderr, "ringbench: %s did not produce metric %s\n", name, m)
			return 1
		}
		metrics[m] = map[string]any{"value": v, "unit": unit}
	}
	names := make([]string, 0, len(metrics))
	for m := range metrics {
		names = append(names, m)
	}
	sort.Strings(names)
	fmt.Printf("%s seed=%d trace=%v: %.1fs\n", name, seed, traced, time.Since(t0).Seconds())
	for _, m := range names {
		fmt.Printf("  %-34s %14.6g %s\n", m, out.metrics[m], units[m])
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(out.problems) == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ringbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// runSelftest runs every workload at tiny sizes in both modes and checks
// that each run emits exactly the metrics BENCHMARK.json lists, with the
// same units, and passes its output checks.
func runSelftest(e *env) int {
	raw, err := os.ReadFile(e.root + "/BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "ringbench: selftest:", err)
		return 1
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		E2E       []struct{ Name, Unit string } `json:"end_to_end"`
		Layer     []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "ringbench: selftest: BENCHMARK.json:", err)
		return 1
	}
	var errs []string
	same := func(what string, listed []struct{ Name, Unit string }, units map[string]string) {
		if len(listed) != len(units) {
			errs = append(errs, fmt.Sprintf("BENCHMARK.json lists %d %s metrics, the benchmark emits %d", len(listed), what, len(units)))
		}
		for _, m := range listed {
			if units[m.Name] != m.Unit {
				errs = append(errs, fmt.Sprintf("%s metric %s: BENCHMARK.json unit %q, emitted %q", what, m.Name, m.Unit, units[m.Name]))
			}
		}
	}
	same("end_to_end", spec.E2E, e2eUnits)
	same("per_layer", spec.Layer, layerUnits)
	if len(spec.Workloads) != len(workloads) {
		errs = append(errs, fmt.Sprintf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads)))
	}
	for _, w := range spec.Workloads {
		run, ok := workloads[w.Name]
		if !ok {
			errs = append(errs, "unknown workload "+w.Name)
			continue
		}
		for _, traced := range []bool{false, true} {
			out, err := run(e, 7, 1, traced)
			if err != nil {
				errs = append(errs, fmt.Sprintf("%s trace=%v: %v", w.Name, traced, err))
				continue
			}
			units := e2eUnits
			if traced {
				units = layerUnits
			}
			for m := range units {
				if _, ok := out.metrics[m]; !ok {
					errs = append(errs, fmt.Sprintf("%s trace=%v: metric %s missing", w.Name, traced, m))
				}
			}
			if len(out.problems) > 0 || out.failed > 0 || out.attempted == 0 {
				errs = append(errs, fmt.Sprintf("%s trace=%v: %d/%d failed: %s", w.Name, traced, out.failed, out.attempted, strings.Join(out.problems, "; ")))
			}
			fmt.Printf("selftest %s trace=%v: %d metrics, %d attempted\n", w.Name, traced, len(out.metrics), out.attempted)
		}
	}
	for _, m := range errs {
		fmt.Fprintln(os.Stderr, "ringbench: selftest:", m)
	}
	if len(errs) > 0 {
		return 1
	}
	fmt.Println("selftest ok")
	return 0
}
