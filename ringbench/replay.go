package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/predict"
	"repro/internal/results"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The replay runs one workload's requests in this process through each
// layer's public functions, in the order the server calls them, with a
// span around every call. It runs in a child process of its own, twice
// per traced run: once without spans, for the wall time the tracing
// overhead is measured against, and once with them.

// span is one timed call. Spans of one request share Req; Parent is the
// ID of the enclosing span (0 = none).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Req    string  `json:"req"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Self   float64 `json:"self_us"`
	// Insts is the instruction count the call processed, where it has
	// one, so rates are measured where the work happens.
	Insts float64 `json:"insts,omitempty"`
}

// tracer keeps spans in memory. The replay is single-threaded, so it
// needs no lock; with on false it records nothing.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	open  []int // stack of open span IDs
}

func (t *tracer) begin(name, req string) int {
	if !t.on {
		return 0
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: t.now()})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int, insts float64) {
	if id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.End, s.Insts = t.now(), insts
	t.open = t.open[:len(t.open)-1]
}

func (t *tracer) now() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e3 }

// do wraps one call in a span.
func (t *tracer) do(name, req string, insts float64, f func()) {
	id := t.begin(name, req)
	f()
	t.end(id, insts)
}

// selfTimes fills each span's self time: its duration minus the part
// its children cover.
func (t *tracer) selfTimes() {
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start
	}
	for _, s := range t.spans {
		if s.Parent > 0 {
			t.spans[s.Parent-1].Self -= s.End - s.Start
		}
	}
}

// layerStat sums the spans of one name.
type layerStat struct {
	n           int
	total, self float64 // µs
	insts       float64
}

func (t *tracer) stats() map[string]*layerStat {
	out := map[string]*layerStat{}
	for _, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		st.n++
		st.total += s.End - s.Start
		st.self += s.Self
		st.insts += s.Insts
	}
	return out
}

// replayer carries the layer objects one replay drives.
type replayer struct {
	t        *tracer
	store    *results.Disk
	jnl      *journal.Journal
	jdir     string
	profiles *harness.ProfileCache
	model    predict.Model
	// traced marks trace prefixes already generated by trace.gen and
	// materialized in the shared trace cache.
	traced map[string]bool
}

// replayReport is what the child writes for the parent.
type replayReport struct {
	Wall   float64            `json:"wall_s"`
	Layers map[string]float64 `json:"layers"`
	Table  []string           `json:"table"`
	Spans  string             `json:"spans_file"`
}

// runReplay is the child-process entry point.
func runReplay(e *env, name string, seed uint64, seconds float64, spans bool, outPath string) error {
	storeDir, err := e.mkdir("replay-store")
	if err != nil {
		return err
	}
	jdir, err := e.mkdir("replay-journal")
	if err != nil {
		return err
	}
	store, err := results.NewDisk(storeDir)
	if err != nil {
		return err
	}
	jnl, err := journal.Open(jdir, journal.Options{})
	if err != nil {
		return err
	}
	r := &replayer{
		t:     &tracer{on: spans},
		store: store, jnl: jnl, jdir: jdir,
		profiles: harness.NewProfileCache(nil, ""),
		model:    predict.DefaultModel(),
		traced:   map[string]bool{},
	}
	var reqs []harness.Request
	var sampledReqs []harness.Request
	var explore *exploreInputs
	switch name {
	case "sweep-cold", "fleet-sweep":
		in, err := sweepColdInputs(seed, 0)
		if name == "fleet-sweep" {
			in, err = fleetInputs(seed, 0)
		}
		if err != nil {
			return err
		}
		reqs = capBudget(in.reqs, replayBudget())
	case "serve-warm-open":
		if reqs, err = r.serveWarmReplaySetup(seed, seconds); err != nil {
			return err
		}
	case "explore-cold":
		explore = exploreColdInputs(seed, 0)
	default:
		return fmt.Errorf("unknown workload %q", name)
	}
	// Three requests long enough for sampled windows also run sampled, so
	// every workload reports the sampled executor's rate.
	for _, q := range reqs {
		if len(sampledReqs) == 3 {
			break
		}
		if budgetInsts(q) >= float64(2*harness.DefaultSampling.Interval) {
			q.Sampling = harness.DefaultSampling
			sampledReqs = append(sampledReqs, q)
		}
	}

	r.t.t0 = time.Now()
	t0 := time.Now()
	if explore != nil {
		if err := r.replayExplore(explore); err != nil {
			return err
		}
	} else {
		seen := map[string]bool{}
		for _, q := range reqs {
			if _, err := r.pipeline(q, seen); err != nil {
				return err
			}
		}
		for _, q := range sampledReqs {
			if _, err := r.pipeline(q, seen); err != nil {
				return err
			}
		}
		if err := r.score(reqs); err != nil {
			return err
		}
	}
	if err := r.jnl.Close(); err != nil {
		return err
	}
	var reopen error
	r.t.do("journal.open", "", 0, func() {
		var j *journal.Journal
		if j, reopen = journal.Open(r.jdir, journal.Options{}); reopen == nil {
			reopen = j.Close()
		}
	})
	if reopen != nil {
		return reopen
	}
	rep := replayReport{Wall: time.Since(t0).Seconds(), Layers: map[string]float64{}}
	if spans {
		r.t.selfTimes()
		rep.Layers, rep.Table = r.layerMetrics(rep.Wall)
		dir := filepath.Join(e.root, ".bench_build", "spans")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		rep.Spans = filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed))
		b, err := json.Marshal(r.t.spans)
		if err != nil {
			return err
		}
		if err := os.WriteFile(rep.Spans, b, 0o644); err != nil {
			return err
		}
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, b, 0o644)
}

// replayBudget caps the instructions a replay simulates, so a traced
// run stays a bounded multiple of the untraced one.
func replayBudget() float64 {
	if tiny {
		return 1e6
	}
	return 4e6
}

// capBudget keeps an evenly spaced subset of reqs whose summed budget
// stays under limit.
func capBudget(reqs []harness.Request, limit float64) []harness.Request {
	var total float64
	for _, q := range reqs {
		total += budgetInsts(q)
	}
	stride := 1
	for total/float64(stride) > limit {
		stride++
	}
	var out []harness.Request
	for i := 0; i < len(reqs); i += stride {
		out = append(out, reqs[i])
	}
	return out
}

// pipeline runs one request the way the server does: key, journal
// enqueue, store lookup, and on a miss trace, simulate, encode, store and
// journal the completion; the client then decodes the result. Requests
// already answered in this replay are registry hits.
func (r *replayer) pipeline(req harness.Request, seen map[string]bool) (harness.Run, error) {
	var run harness.Run
	var key string
	var err error
	rid := r.t.begin("request", "")
	defer func() { r.t.end(rid, 0) }()
	r.t.do("results.key", "", 0, func() { key, err = results.NewRequest(req).Key() })
	if err != nil {
		return run, err
	}
	if rid > 0 {
		r.t.spans[rid-1].Req = key
	}
	if seen[key] {
		return run, nil
	}
	seen[key] = true
	job := results.Job{Key: key, Request: results.NewRequest(req)}
	r.t.do("journal.append", key, 0, func() { err = r.jnl.Append(journal.Record{Op: journal.OpEnqueue, Key: key, Job: &job}) })
	if err != nil {
		return run, err
	}
	var res results.Result
	var hit bool
	r.t.do("results.store_get", key, 0, func() { res, hit, err = r.store.Get(key) })
	if err != nil {
		return run, err
	}
	if !hit {
		if err := r.materialize(req, key); err != nil {
			return run, err
		}
		insts := budgetInsts(req)
		if req.Sampling.Enabled() {
			r.t.do("harness.execute_sampled", key, insts, func() { run = harness.ExecuteSampled(req) })
		} else {
			r.t.do("harness.execute", key, insts, func() { run = harness.Execute(req) })
		}
		if run.Err != nil {
			return run, run.Err
		}
		var raw []byte
		r.t.do("results.encode", key, 0, func() {
			if res, err = results.FromRun(req, run); err == nil {
				raw, err = json.Marshal(res)
			}
		})
		if err != nil {
			return run, err
		}
		r.t.do("results.store_put", key, 0, func() { err = r.store.Put(key, res) })
		if err != nil {
			return run, err
		}
		r.t.do("results.decode", key, 0, func() { err = json.Unmarshal(raw, &results.Result{}) })
	} else {
		raw, merr := json.Marshal(res)
		if merr != nil {
			return run, merr
		}
		r.t.do("results.decode", key, 0, func() { err = json.Unmarshal(raw, &results.Result{}) })
		run.Stats = res.Stats
	}
	if err != nil {
		return run, err
	}
	r.t.do("journal.append", key, 0, func() { err = r.jnl.Append(journal.Record{Op: journal.OpComplete, Key: key}) })
	return run, err
}

// materialize generates each stream's trace prefix once from a private
// unbounded cache (trace.gen, the generator's own rate) and then fills
// the shared trace cache, so harness.Execute runs over materialized
// traces as in a warm server.
func (r *replayer) materialize(req harness.Request, key string) error {
	budgets := harness.StreamBudgets(req.Workload, req.Insts, req.Warmup)
	for i, s := range req.Workload.Streams {
		id := fmt.Sprintf("%s@%d:%d", s.Program, s.Seed, budgets[i])
		if r.traced[id] {
			continue
		}
		r.traced[id] = true
		var err error
		r.t.do("trace.gen", key, float64(budgets[i]), func() {
			err = drain(harness.NewTraceCache(0), s.Program, s.Seed, budgets[i])
		})
		if err != nil {
			return err
		}
		r.t.do("harness.materialize", key, float64(budgets[i]), func() {
			err = drain(harness.DefaultTraceCache, s.Program, s.Seed, budgets[i])
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// drain reads the first n instructions of a stream from a trace cache.
func drain(tc *harness.TraceCache, program string, seed, n uint64) error {
	st, err := tc.Stream(program, seed, n)
	if err != nil {
		return err
	}
	for {
		if _, err := st.Next(); err != nil {
			if errors.Is(err, trace.ErrEnd) {
				return nil
			}
			return err
		}
	}
}

// score profiles the distinct workloads of the replayed requests with a
// cold profile cache, up to one per benchmark program, and scores each
// request on a profiled workload with the twin's model.
func (r *replayer) score(reqs []harness.Request) error {
	profiles := map[string]*predict.Profile{}
	for _, q := range reqs {
		name := q.Workload.Name()
		p, ok := profiles[name]
		if !ok && len(profiles) == len(workload.Names()) {
			continue
		}
		if !ok {
			var err error
			r.t.do("predict.profile", name, budgetInsts(q), func() { p, err = r.profiles.ProfileSpec(q.Workload, q.Insts, q.Warmup) })
			if err != nil {
				return err
			}
			profiles[name] = p
		}
		cfg := q.Config
		var err error
		r.t.do("predict.score", name, 0, func() { _, err = r.model.PredictIPC(p, &cfg) })
		if err != nil {
			return err
		}
	}
	return nil
}

// replayExplore runs the exploration in process: cold profiles for the
// twin, then dse.Explore over an evaluator that sends every program run
// through the same pipeline, one candidate at a time.
func (r *replayer) replayExplore(in *exploreInputs) error {
	var reqs []harness.Request
	for _, c := range in.space.Grid() {
		cfg, err := in.space.Config(c)
		if err != nil {
			return err
		}
		for _, p := range in.programs {
			q, err := harness.Expand([]core.Config{cfg}, []string{p}, in.insts, in.warm)
			if err != nil {
				return err
			}
			reqs = append(reqs, q...)
		}
	}
	if err := r.score(reqs); err != nil {
		return err
	}
	strategy, err := dse.NewStrategy("grid", 0)
	if err != nil {
		return err
	}
	ev := &replayEvaluator{r: r, in: in, seen: map[string]bool{}}
	_, err = dse.Explore(dse.Options{
		Space:       in.space,
		Strategy:    strategy,
		Evaluator:   ev,
		Concurrency: 1,
		Sampling:    harness.DefaultSampling,
		Twin: &dse.TwinOptions{
			Mode: dse.TwinOn, Programs: in.programs, Insts: in.insts, Warmup: in.warm,
			Profiles: r.profiles,
		},
	})
	return err
}

// replayEvaluator scores a candidate as the mean IPC of its programs,
// like dse.SimEvaluator, with each run through replayer.pipeline.
type replayEvaluator struct {
	r        *replayer
	in       *exploreInputs
	sampling harness.Sampling
	seen     map[string]bool
}

func (ev *replayEvaluator) WithSampling(sp harness.Sampling) dse.Evaluator {
	return &replayEvaluator{r: ev.r, in: ev.in, sampling: sp, seen: ev.seen}
}

func (ev *replayEvaluator) Evaluate(cfg core.Config, programs []string) (dse.Objectives, dse.EvalStats, error) {
	var st dse.EvalStats
	if programs == nil {
		programs = ev.in.programs
	}
	name := "dse.exact_eval"
	if ev.sampling.Enabled() {
		name = "dse.sampled_eval"
	}
	id := ev.r.t.begin(name, cfg.Name)
	defer ev.r.t.end(id, 0)
	var sum float64
	for _, p := range programs {
		reqs, err := harness.Expand([]core.Config{cfg}, []string{p}, ev.in.insts, ev.in.warm)
		if err != nil {
			return dse.Objectives{}, st, err
		}
		q := reqs[0]
		q.Sampling = ev.sampling
		run, err := ev.r.pipeline(q, ev.seen)
		if err != nil {
			return dse.Objectives{}, st, err
		}
		st.Sims++
		sum += run.Stats.IPC()
	}
	return dse.Objectives{IPC: sum / float64(len(programs)), Area: dse.Area(cfg)}, st, nil
}

// layerMetrics turns the spans into the per-layer metrics the replay
// measures, and a table of every span name's self time.
func (r *replayer) layerMetrics(wall float64) (map[string]float64, []string) {
	st := r.t.stats()
	get := func(name string) *layerStat {
		if s := st[name]; s != nil {
			return s
		}
		return &layerStat{}
	}
	mean := func(name string) float64 {
		s := get(name)
		if s.n == 0 {
			return 0
		}
		return s.total / float64(s.n)
	}
	rate := func(name string) float64 { // Minst per second of span time
		s := get(name)
		if s.total == 0 {
			return 0
		}
		return s.insts / s.total
	}
	m := map[string]float64{
		"results.key_us":              mean("results.key"),
		"results.encode_us":           mean("results.encode"),
		"results.decode_us":           mean("results.decode"),
		"results.store_get_us":        mean("results.store_get"),
		"results.store_put_us":        mean("results.store_put"),
		"journal.append_us":           mean("journal.append"),
		"journal.open_ms":             mean("journal.open") / 1e3,
		"trace.gen_minst_per_s":       rate("trace.gen"),
		"harness.execute_minst_per_s": rate("harness.execute"),
		"harness.sampled_minst_per_s": rate("harness.execute_sampled"),
		"predict.profile_ms":          mean("predict.profile") / 1e3,
		"predict.score_us":            mean("predict.score"),
		"dse.sampled_eval_s":          get("dse.sampled_eval").total / 1e6,
		"dse.exact_confirm_s":         get("dse.exact_eval").total / 1e6,
	}
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return st[names[a]].self > st[names[b]].self })
	table := []string{fmt.Sprintf("  %-26s %7s %12s %12s %8s", "layer (replay span)", "count", "self ms", "mean us", "share")}
	for _, n := range names {
		s := st[n]
		table = append(table, fmt.Sprintf("  %-26s %7d %12.2f %12.2f %7.1f%%", n, s.n, s.self/1e3, s.total/float64(s.n), 100*s.self/1e6/wall))
	}
	return m, table
}

// runReplayChild starts this binary as a replay child and reads its
// report.
func (e *env) runReplayChild(name string, seed uint64, seconds float64, spans bool) (*replayReport, error) {
	out := filepath.Join(e.dir, fmt.Sprintf("replay-%v-%d.json", spans, time.Now().UnixNano()))
	sp := "0"
	if spans {
		sp = "1"
	}
	args := []string{"-root", e.root, "-bin", e.bin, "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-replay", out, "-spans", sp}
	if tiny {
		args = append(args, "-selftest")
	}
	p, err := e.start("replay", "ringbench", args...)
	if err != nil {
		return nil, err
	}
	<-p.done
	if code := p.cmd.ProcessState.ExitCode(); code != 0 {
		return nil, fmt.Errorf("replay child exited %d:\n%s", code, strings.TrimSpace(p.log()))
	}
	b, err := os.ReadFile(out)
	if err != nil {
		return nil, err
	}
	var rep replayReport
	return &rep, json.Unmarshal(b, &rep)
}

// serveWarmReplaySetup fills the store with the stored cells (no spans)
// and returns the middle rate step's requests in schedule order, drawn
// exactly as the HTTP run draws them.
func (r *replayer) serveWarmReplaySetup(seed uint64, seconds float64) ([]harness.Request, error) {
	in, err := serveWarmInputs(seed)
	if err != nil {
		return nil, err
	}
	for _, c := range in.stored {
		run := harness.Execute(c.req)
		if run.Err != nil {
			return nil, run.Err
		}
		res, err := results.FromRun(c.req, run)
		if err != nil {
			return nil, err
		}
		if err := r.store.Put(c.key, res); err != nil {
			return nil, err
		}
	}
	rates, durations, mid := serveSteps(seconds)
	var reqs []harness.Request
	for i := 0; i <= mid; i++ {
		_, cells, err := in.schedule(rates[i], durations[i])
		if err != nil {
			return nil, err
		}
		if i == mid {
			for _, c := range cells {
				reqs = append(reqs, c.req)
			}
		}
	}
	return reqs, nil
}
