package main

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"net/http"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/harness"
	"repro/internal/workload"
)

// Workload sizes. They are fixed by the benchmark, not by -seconds: a
// longer run repeats the job more often and reports medians. -selftest
// shrinks them to seconds.
type sizes struct {
	sweepInsts, sweepWarm     uint64
	sweepPrograms             int
	servePrograms             int
	serveConfigs              int
	serveInsts, serveWarm     uint64
	serveRates                []float64
	exploreInsts, exploreWarm uint64
	explorePrograms           int
	fleetSpecs                int // singles and as many 2-stream mixes
	fleetMin, fleetMax        uint64
	fleetWarm                 uint64
}

func size() sizes {
	if tiny {
		return sizes{
			sweepInsts: 4000, sweepWarm: 1000, sweepPrograms: 3,
			servePrograms: 3, serveConfigs: 2, serveInsts: 4000, serveWarm: 1000, serveRates: []float64{10, 20, 40, 80, 160, 320},
			exploreInsts: 24000, exploreWarm: 2000, explorePrograms: 2,
			fleetSpecs: 2, fleetMin: 3000, fleetMax: 6000, fleetWarm: 1000,
		}
	}
	return sizes{
		sweepInsts: 50_000, sweepWarm: 10_000, sweepPrograms: 26,
		servePrograms: 26, serveConfigs: 4, serveInsts: 20_000, serveWarm: 2_000, serveRates: []float64{37.5, 75, 150, 300, 600, 1200},
		exploreInsts: 75_000, exploreWarm: 15_000, explorePrograms: 13,
		fleetSpecs: 25, fleetMin: 30_000, fleetMax: 60_000, fleetWarm: 5_000,
	}
}

// rngFor derives an input generator from the workload seed. Repetition
// r of a workload draws inputs of its own, so a run's medians average
// over several input sets as well as over time.
func rngFor(name string, seed uint64, r int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", name, r)
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// streamSeed draws a non-zero trace seed. Zero would select a profile's
// own seed, on which the twin was calibrated; every generated input is
// held out from calibration.
func streamSeed(rng *rand.Rand) uint64 { return 1 + rng.Uint64N(1<<31) }

// seededPrograms names the first n benchmark programs, each at its own
// seed: "gcc@123", "swim@456", ...
func seededPrograms(rng *rand.Rand, names []string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s@%d", names[i%len(names)], streamSeed(rng))
	}
	return out
}

// budgetInsts is the instructions a request simulates, warm-up included.
func budgetInsts(r harness.Request) float64 {
	var n uint64
	for _, b := range harness.StreamBudgets(r.Workload, r.Insts, r.Warmup) {
		n += b
	}
	return float64(n)
}

// --- sweep-cold and fleet-sweep ---

// sweepInputs is one seeded sweep: the grid, its expanded requests and
// their content keys.
type sweepInputs struct {
	body  map[string]any
	reqs  []harness.Request
	keys  []string
	insts float64 // summed request budgets
}

func newSweepInputs(cfgs []core.Config, specs []string, insts, warm uint64) (*sweepInputs, error) {
	reqs, err := harness.Expand(cfgs, specs, insts, warm)
	if err != nil {
		return nil, err
	}
	keys, err := keysOf(reqs)
	if err != nil {
		return nil, err
	}
	in := &sweepInputs{
		body: map[string]any{"configs": wireConfigs(cfgs), "programs": specs, "insts": insts, "warmup": warm},
		reqs: reqs, keys: keys,
	}
	for _, r := range reqs {
		in.insts += budgetInsts(r)
	}
	return in, nil
}

// sweepColdInputs is the Figure-6 grid: the ten paper configurations
// over every benchmark program at a seed of its own.
func sweepColdInputs(seed uint64, r int) (*sweepInputs, error) {
	s := size()
	rng := rngFor("sweep-cold", seed, r)
	return newSweepInputs(harness.PaperConfigs(), seededPrograms(rng, workload.Names(), s.sweepPrograms), s.sweepInsts, s.sweepWarm)
}

// fleetInputs is about 200 short runs: four configurations over
// synth-random singles and 2-stream mixes of 30-60k instructions per
// stream. Stream lengths step evenly through that range, so every input
// set has the same instruction budget.
func fleetInputs(seed uint64, r int) (*sweepInputs, error) {
	s := size()
	rng := rngFor("fleet-sweep", seed, r)
	n := 0
	stream := func() string {
		insts := s.fleetMin + uint64(n%7)*(s.fleetMax-s.fleetMin)/6
		n++
		return fmt.Sprintf("synth-random:%d@%d", insts, streamSeed(rng))
	}
	var specs []string
	for i := 0; i < s.fleetSpecs; i++ {
		specs = append(specs, stream(), stream()+"+"+stream())
	}
	cfgs := []core.Config{
		core.MustPaperConfig(core.ArchRing, 4, 2, 1),
		core.MustPaperConfig(core.ArchConv, 4, 2, 1),
		core.MustPaperConfig(core.ArchRing, 8, 2, 1),
		core.MustPaperConfig(core.ArchConv, 8, 2, 1),
	}
	return newSweepInputs(cfgs, specs, s.fleetMin, s.fleetWarm)
}

func runSweepCold(e *env, seed uint64, seconds float64, traced bool) (*outcome, error) {
	return e.runSweepWorkload("sweep-cold", seed, seconds, traced, daemonOpts{}, sweepColdInputs)
}

func runFleetSweep(e *env, seed uint64, seconds float64, traced bool) (*outcome, error) {
	return e.runSweepWorkload("fleet-sweep", seed, seconds, traced, daemonOpts{fleetWorkers: 2}, fleetInputs)
}

// runSweepWorkload repeats a cold sweep, each time with inputs of its own
// against a fresh daemon over empty directories, until the run length is
// used up.
func (e *env) runSweepWorkload(name string, seed uint64, seconds float64, traced bool, o daemonOpts,
	inputs func(seed uint64, r int) (*sweepInputs, error)) (*outcome, error) {
	out := newOutcome()
	var reps []jobRep
	var insts []float64
	for measured := 0.0; len(reps) == 0 || (!traced && measured < seconds); {
		in, err := inputs(seed, len(reps))
		if err != nil {
			return nil, err
		}
		var v sweepView
		j := sweepJob(o, in.body, len(in.reqs), &v)
		j.probe = traced
		rep, err := e.runJob(j)
		if err != nil {
			return nil, err
		}
		measured += rep.setup + rep.wall
		insts = append(insts, in.insts)
		rep.insts = in.insts
		reps = append(reps, rep)
		out.attempted += len(in.reqs)
		bad, problems := checkSweep(v, in.reqs, in.keys, rngFor(name+"/check", seed, len(reps)), 3)
		out.failed += bad
		out.problems = append(out.problems, problems...)
	}
	if traced {
		return e.traceSweep(name, seed, out, reps[0])
	}
	setups, err := e.moreSetups(o, "", len(reps))
	if err != nil {
		return nil, err
	}
	e.jobMetrics(out, reps, setups)
	out.addf("%s: %d runs per sweep, %.3g Minst budget, %d repetitions", name, out.attempted/len(reps), median(insts)/1e6, len(reps))
	return out, nil
}

// jobMetrics reduces repeated jobs to the end-to-end metrics: the median
// over repetitions of each. Times are reported at the reference host
// speed: divided by the run's host slowdown (hostref.go). Set-up
// time is the median over the repetitions' launches and the extra ones
// in setups.
func (e *env) jobMetrics(out *outcome, reps []jobRep, setups []float64) {
	slow := e.slowdown()
	m := out.metrics
	for _, r := range reps {
		setups = append(setups, r.setup)
	}
	m["setup_s"] = median(setups) / slow
	m["wall_s"] = medianOf(reps, func(r jobRep) float64 { return r.wall }) / slow
	m["sim_minst_per_s"] = medianOf(reps, func(r jobRep) float64 { return r.insts / r.wall / 1e6 }) * slow
	m["p50_ms"] = medianOf(reps, func(r jobRep) float64 { return quantile(r.doneAt, 0.50) }) / slow
	m["p99_ms"] = medianOf(reps, func(r jobRep) float64 { return quantile(r.doneAt, 0.99) }) / slow
	m["goodput_rps"] = medianOf(reps, func(r jobRep) float64 { return float64(r.done) / r.wall }) * slow
	m["peak_rss_mb"] = medianOf(reps, func(r jobRep) float64 { return r.rss })
	m["ok_frac"] = float64(out.attempted-out.failed) / float64(out.attempted)
	for i, r := range reps {
		out.addf("  rep %d: setup %.3fs, wall %.3fs, %d runs, p50 %.0fms, p99 %.0fms, rss %.0fMiB",
			i, r.setup, r.wall, r.done, quantile(r.doneAt, 0.5), quantile(r.doneAt, 0.99), r.rss)
	}
	out.addf("  times above as measured; metrics at the reference host speed: %s", e.refLine())
}

// --- explore-cold ---

type exploreInputs struct {
	body     map[string]any
	space    dse.Space
	programs []string
	insts    uint64
	warm     uint64
}

// exploreColdInputs is a 16-candidate arch×clusters×buses×iw space over
// half the benchmark programs (alternating INT and FP), twin-gated with a
// sampled search tier.
func exploreColdInputs(seed uint64, r int) *exploreInputs {
	s := size()
	rng := rngFor("explore-cold", seed, r)
	var alternating []string
	ints, fps := workload.SuiteNames(workload.ClassInt), workload.SuiteNames(workload.ClassFP)
	for i := 0; len(alternating) < s.explorePrograms; i++ {
		alternating = append(alternating, ints[i%len(ints)])
		if len(alternating) < s.explorePrograms {
			alternating = append(alternating, fps[i%len(fps)])
		}
	}
	axes := []dse.Axis{
		{Name: dse.AxisArch, Values: []int{0, 1}},
		{Name: dse.AxisClusters, Values: []int{4, 8}},
		{Name: dse.AxisBuses, Values: []int{1, 2}},
		{Name: dse.AxisIW, Values: []int{1, 2}},
	}
	in := &exploreInputs{
		programs: seededPrograms(rng, alternating, len(alternating)),
		space:    dse.Space{Base: core.MustPaperConfig(core.ArchRing, 8, 2, 1), Axes: axes},
		insts:    s.exploreInsts, warm: s.exploreWarm,
	}
	in.body = map[string]any{
		"axes": axes, "programs": in.programs, "insts": in.insts, "warmup": in.warm,
		"twin": "on", "fidelity": "sampled",
	}
	return in
}

func exploreJob(in *exploreInputs, out *exploreView) job {
	return job{
		submit: func(c *client) (string, error) {
			var v exploreView
			if err := c.do("POST", "/v1/explore", in.body, http.StatusAccepted, &v); err != nil {
				return "", err
			}
			return v.ID, nil
		},
		finished: func(c *client, id string) (bool, error) {
			var v exploreView
			if err := c.do("GET", "/v1/explore/"+id, nil, http.StatusOK, &v); err != nil {
				return false, err
			}
			*out = v
			return terminal(v.Status), nil
		},
	}
}

func runExploreCold(e *env, seed uint64, seconds float64, traced bool) (*outcome, error) {
	out := newOutcome()
	var reps []jobRep
	var views []exploreView
	for measured := 0.0; len(reps) == 0 || (!traced && measured < seconds); {
		in := exploreColdInputs(seed, len(reps))
		var v exploreView
		j := exploreJob(in, &v)
		j.probe = traced
		rep, err := e.runJob(j)
		if err != nil {
			return nil, err
		}
		measured += rep.setup + rep.wall
		// An exploration's rate counts instructions simulated in detail:
		// exact runs' full budgets plus sampled runs' detailed windows.
		// How many runs the twin sends to each tier varies with the
		// inputs, and a sampled run costs a fraction of an exact one.
		d := func(series string) float64 { return rep.after[series] - rep.before[series] }
		exact := d("ringsimd_runs_started_total") - d("ringsimd_sampled_runs_total")
		rep.insts = exact*float64(in.insts+in.warm) + d("ringsimd_sampled_detailed_insts_total")
		reps = append(reps, rep)
		views = append(views, v)
		out.attempted++
		if problems := checkExplore(v, in, rngFor("explore-cold/check", seed, len(reps)), len(reps) == 1); len(problems) > 0 {
			out.failed++
			out.problems = append(out.problems, problems...)
		}
	}
	if traced {
		return e.traceExplore(seed, out, reps[0], views[0])
	}
	setups, err := e.moreSetups(daemonOpts{}, "", len(reps))
	if err != nil {
		return nil, err
	}
	e.jobMetrics(out, reps, setups)
	for i, v := range views {
		out.addf("  explore %d: %d runs, frontier %d, %d sims avoided, twin MAPE %.2f%%", i, reps[i].done, len(v.Frontier), v.SimsAvoided, v.TwinMAPE)
	}
	return out, nil
}

// checkExplore verifies a finished exploration: done without failures,
// every frontier candidate confirmed exactly, and (on the first
// repetition) one seeded frontier point equal to a direct exact
// evaluation in process.
func checkExplore(v exploreView, in *exploreInputs, rng *rand.Rand, direct bool) []string {
	var problems []string
	if v.Status != "done" || v.Failed != 0 || v.Error != "" {
		problems = append(problems, fmt.Sprintf("exploration %s ended %s with %d failed: %s", v.ID, v.Status, v.Failed, v.Error))
	}
	// Every sampled-frontier candidate is re-scored exactly; exact
	// numbers can let one confirmed point dominate another, so the final
	// frontier may be smaller than the confirmations, never larger.
	if len(v.Frontier) == 0 || v.ExactConfirms < len(v.Frontier) {
		problems = append(problems, fmt.Sprintf("exploration confirmed %d points exactly for a frontier of %d", v.ExactConfirms, len(v.Frontier)))
	}
	if !direct || len(problems) > 0 {
		return problems
	}
	p := v.Frontier[rng.IntN(len(v.Frontier))]
	cfg, err := in.space.Config(p.Candidate)
	if err != nil {
		return append(problems, fmt.Sprintf("frontier candidate %s: %v", p.Config, err))
	}
	ev := &dse.SimEvaluator{Programs: in.programs, Insts: in.insts, Warmup: in.warm}
	obj, _, err := ev.Evaluate(cfg, nil)
	switch {
	case err != nil:
		problems = append(problems, fmt.Sprintf("direct evaluation of %s: %v", p.Config, err))
	case obj != p.Objectives:
		problems = append(problems, fmt.Sprintf("frontier %s objectives %+v, direct exact evaluation %+v", p.Config, p.Objectives, obj))
	}
	return problems
}

// sampledIPCErrPct is the mean absolute error of the sampled search
// tier's IPC against the exact confirmation, over the frontier.
func sampledIPCErrPct(v exploreView) float64 {
	sampled := map[string]float64{}
	for _, p := range v.Points {
		sampled[p.Config] = p.Objectives.IPC
	}
	var sum float64
	var n int
	for _, p := range v.Frontier {
		s, ok := sampled[p.Config]
		if !ok || p.Objectives.IPC == 0 {
			continue
		}
		d := (s - p.Objectives.IPC) / p.Objectives.IPC
		if d < 0 {
			d = -d
		}
		sum += 100 * d
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
