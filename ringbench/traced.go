package main

import (
	"fmt"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// A traced run (-trace 1) reports per-layer metrics from three sources:
// /metrics deltas around the workload's job and CPU profiles of the
// daemon taken while it runs (both from one untimed repetition over
// HTTP), and the in-process replay with spans. The replay also runs once
// without spans; the difference of the two walls is the tracing
// overhead.

// probe is what the HTTP repetition of a traced run observed.
type probe struct {
	before, after map[string]float64
	profiles      []string
	wall          float64 // s
	workers       int
	workerLogs    []string
	late          []float64 // ms the client's sends or polls ran behind schedule
	leases        []float64 // outstanding fleet leases at each poll
}

func (e *env) traceSweep(name string, seed uint64, out *outcome, rep jobRep) (*outcome, error) {
	p := probe{before: rep.before, after: rep.after, profiles: rep.profiles, wall: rep.wall, workerLogs: rep.workerLogs, late: rep.late, leases: rep.leases}
	p.workers = len(rep.workerLogs)
	return e.finishTrace(name, seed, 0, out, p)
}

func (e *env) traceExplore(seed uint64, out *outcome, rep jobRep, v exploreView) (*outcome, error) {
	p := probe{before: rep.before, after: rep.after, profiles: rep.profiles, wall: rep.wall, late: rep.late}
	out, err := e.finishTrace("explore-cold", seed, 0, out, p)
	if err != nil {
		return nil, err
	}
	m := out.metrics
	if total := v.SimsAvoided + v.SimsRun + v.CacheHits; total > 0 {
		m["dse.sims_avoided_frac"] = float64(v.SimsAvoided) / float64(total)
	}
	m["predict.twin_mape_pct"] = v.TwinMAPE
	m["harness.sampled_ipc_err_pct"] = sampledIPCErrPct(v)
	out.addf("  dse.sims_avoided_frac = %d avoided / %d program runs (avoided + simulated + cached)", v.SimsAvoided, v.SimsAvoided+v.SimsRun+v.CacheHits)
	out.addf("  predict.twin_mape_pct = %.3f over %d twin-verified candidates; harness.sampled_ipc_err_pct = %.3f over %d frontier points (seeds held out from calibration)",
		v.TwinMAPE, v.TwinVerified, m["harness.sampled_ipc_err_pct"], len(v.Frontier))
	return out, nil
}

func (e *env) traceServe(seed uint64, out *outcome, st *stepResult, seconds float64) (*outcome, error) {
	p := probe{before: st.before, after: st.after, profiles: st.profiles, wall: st.wall, late: st.late}
	return e.finishTrace("serve-warm-open", seed, seconds, out, p)
}

// finishTrace derives the per-layer metrics from the probe and the two
// replay children, and appends the layer table.
func (e *env) finishTrace(name string, seed uint64, seconds float64, out *outcome, p probe) (*outcome, error) {
	m := out.metrics
	for metric := range layerUnits {
		m[metric] = 0 // layers this workload does not exercise read 0
	}
	d := func(series string) float64 { return p.after[series] - p.before[series] }
	frac := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	submitted := d("ringsimd_runs_submitted_total")
	started := d("ringsimd_runs_started_total")
	m["server.queue_wait_ms"] = 1e3 * frac(d("ringsimd_queue_age_seconds_sum"), d("ringsimd_queue_age_seconds_count"))
	m["server.cache_hit_frac"] = frac(d("ringsimd_cache_hits_total"), submitted)
	m["server.journal_entries_per_req"] = frac(d("ringsimd_journal_entries_total"), submitted)
	m["harness.trace_cache_mb"] = p.after["ringsimd_trace_cache_bytes"] / (1 << 20)
	tcHits, tcMisses := d("ringsimd_trace_cache_hits_total"), d("ringsimd_trace_cache_misses_total")
	m["harness.trace_cache_hit_frac"] = frac(tcHits, tcHits+tcMisses)
	m["harness.batch_runs_frac"] = frac(d("ringsimd_batch_runs_total"), started)
	detailed, ff := d("ringsimd_sampled_detailed_insts_total"), d("ringsimd_sampled_ff_insts_total")
	m["harness.sampled_detailed_frac"] = frac(detailed, detailed+ff)
	out.addf("%s traced run, seed %d", name, seed)
	out.addf("  server: %.0f submissions, %.0f cache hits, %.0f simulations, %.0f journal entries, queue wait %.3f ms mean over %.0f jobs",
		submitted, d("ringsimd_cache_hits_total"), started, d("ringsimd_journal_entries_total"), m["server.queue_wait_ms"], d("ringsimd_queue_age_seconds_count"))
	out.addf("  harness: trace cache %.0f hits / %.0f requests, %.1f MiB resident; %.0f of %.0f simulations in lockstep batches; sampled %.3g detailed of %.3g insts",
		tcHits, tcHits+tcMisses, m["harness.trace_cache_mb"], d("ringsimd_batch_runs_total"), started, detailed, detailed+ff)

	if p.workers > 0 {
		remote := d("ringsimd_fleet_remote_runs_total")
		m["fleet.remote_runs"] = remote
		m["fleet.requeues"] = d("ringsimd_fleet_requeues_total")
		// Lease grant to completion, per run, summed over the workers.
		span := sumPrefix(p.after, "ringsimd_worker_complete_seconds_sum") - sumPrefix(p.before, "ringsimd_worker_complete_seconds_sum")
		count := sumPrefix(p.after, "ringsimd_worker_complete_seconds_count") - sumPrefix(p.before, "ringsimd_worker_complete_seconds_count")
		m["fleet.worker_run_ms"] = 1e3 * frac(span, count)
		// Idle worker slots per poll: workers holding no lease, read from
		// the coordinator's outstanding-lease gauge (a worker holds at
		// least one lease while it simulates).
		var idle float64
		for _, l := range p.leases {
			idle += max(0, float64(p.workers)-l) / float64(p.workers)
		}
		m["fleet.idle_frac"] = frac(idle, float64(len(p.leases)))
		fetches, regens := 0.0, 0.0
		for _, log := range p.workerLogs {
			f, r, ok := traceCounts(log)
			if !ok {
				return nil, fmt.Errorf("no trace fetch totals in worker log:\n%s", log)
			}
			fetches, regens = fetches+f, regens+r
		}
		m["fleet.trace_fetches"], m["fleet.trace_regens"] = fetches, regens
		out.addf("  fleet: %.0f remote runs, %.0f requeues, %.0f trace fetches, %.0f regenerations, %.2f ms per lease-to-completion over %.0f, %d workers without a lease at %.1f%% of %d polls",
			remote, m["fleet.requeues"], fetches, regens, m["fleet.worker_run_ms"], count, p.workers, 100*m["fleet.idle_frac"], len(p.leases))
	}

	if len(p.profiles) > 0 {
		cum, total, err := profileCum(p.profiles)
		if err != nil {
			return nil, err
		}
		step := cum["repro/internal/core.(*Machine).Step"]
		for metric, fns := range map[string][]string{
			"core.fetch_frac":     {"fetch"},
			"core.dispatch_frac":  {"dispatch"},
			"core.issue_frac":     {"issue", "issueComms"},
			"core.writeback_frac": {"writeback"},
			"core.commit_frac":    {"commit"},
		} {
			var s float64
			for _, fn := range fns {
				s += cum["repro/internal/core.(*Machine)."+fn]
			}
			m[metric] = frac(s, step)
		}
		m["core.ff_frac"] = frac(cum["repro/internal/core.(*Machine).FunctionalAdvance"], total)
		out.addf("  core (daemon CPU profile, %.2fs sampled): Machine.Step %.1f%% of samples; of Step: fetch %.1f%%, dispatch %.1f%%, issue %.1f%%, writeback %.1f%%, commit %.1f%%; FunctionalAdvance %.1f%% of samples",
			total, 100*frac(step, total), 100*m["core.fetch_frac"], 100*m["core.dispatch_frac"], 100*m["core.issue_frac"], 100*m["core.writeback_frac"], 100*m["core.commit_frac"], 100*m["core.ff_frac"])
	}
	m["load.gen_late_ms_p99"] = quantile(p.late, 0.99)
	out.addf("  load: client ran late by %.2f ms at p99 over %d sends/polls", m["load.gen_late_ms_p99"], len(p.late))

	plain, err := e.runReplayChild(name, seed, seconds, false)
	if err != nil {
		return nil, err
	}
	traced, err := e.runReplayChild(name, seed, seconds, true)
	if err != nil {
		return nil, err
	}
	for k, v := range traced.Layers {
		m[k] = v
	}
	m["bench.trace_overhead_frac"] = (traced.Wall - plain.Wall) / plain.Wall
	out.addf("  replay: %.3fs with spans, %.3fs without (overhead %.2f%%); spans in %s", traced.Wall, plain.Wall, 100*m["bench.trace_overhead_frac"], traced.Spans)
	out.table = append(out.table, traced.Table...)
	return out, nil
}

var traceCountsRE = regexp.MustCompile(`trace fetches (\d+), trace regens (\d+)`)

// traceCounts reads a worker's exit line.
func traceCounts(log string) (fetches, regens float64, ok bool) {
	mm := traceCountsRE.FindStringSubmatch(log)
	if mm == nil {
		return 0, 0, false
	}
	f, _ := strconv.ParseFloat(mm[1], 64)
	r, _ := strconv.ParseFloat(mm[2], 64)
	return f, r, true
}

// profileCum merges CPU profiles with `go tool pprof -top -cum` and
// returns each function's cumulative seconds and the total sampled.
func profileCum(files []string) (map[string]float64, float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-cum", "-nodecount=100000"}, files...)
	raw, err := exec.Command("go", args...).CombinedOutput()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %v\n%s", err, raw)
	}
	cum := map[string]float64{}
	var total float64
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if i := strings.Index(line, "% of "); i >= 0 && strings.HasSuffix(line, " total") {
			tf := strings.Fields(line[i+len("% of "):])
			total = seconds(tf[0])
			continue
		}
		if len(f) < 6 || !strings.HasSuffix(f[4], "%") {
			continue
		}
		cum[strings.Join(f[5:], " ")] = seconds(f[3])
	}
	return cum, total, nil
}

// seconds parses a pprof duration such as "1.23s", "450ms" or "80us".
func seconds(s string) float64 {
	for _, u := range []struct {
		suffix string
		scale  float64
	}{{"ms", 1e-3}, {"us", 1e-6}, {"µs", 1e-6}, {"ns", 1e-9}, {"mins", 60}, {"hrs", 3600}, {"s", 1}} {
		if v, ok := strings.CutSuffix(s, u.suffix); ok {
			x, err := strconv.ParseFloat(v, 64)
			if err == nil {
				return x * u.scale
			}
		}
	}
	return 0
}
