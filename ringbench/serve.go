package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/results"
	"repro/internal/workload"
)

// serve-warm-open: an open loop of POST /v1/runs at a few fixed rates,
// each rate step against a daemon freshly restarted over a store and
// journal filled before timing. About 90 % of requests name a stored
// cell (first touch: queue, disk read, journal; later touches: registry
// hits) and 10 % name new cells that simulate and then write the store
// and the journal.

const (
	// latencyLimit is the p99 a rate step must meet to count as served.
	latencyLimit = 100.0 // ms
	// lateLimit is the generator lateness (p99, ms) beyond which a step
	// is invalid: the client, not the service, set its pace.
	lateLimit = 20.0
	// missShare is the share of requests naming cells not yet stored.
	missShare = 0.10
)

// cell is one run request with its content key.
type cell struct {
	req  harness.Request
	key  string
	body map[string]any
}

func newCell(cfg core.Config, spec string, insts, warm uint64) (cell, error) {
	ws, err := workload.ParseSpec(spec)
	if err != nil {
		return cell{}, err
	}
	req := harness.Request{Config: cfg, Workload: ws, Insts: insts, Warmup: warm}
	key, err := results.NewRequest(req).Key()
	if err != nil {
		return cell{}, err
	}
	return cell{req: req, key: key, body: map[string]any{"config": cfg, "program": spec, "insts": insts, "warmup": warm}}, nil
}

// stepResult is one rate step.
type stepResult struct {
	rate      float64
	seconds   float64 // schedule length
	sent      int
	ok        int
	lat       []float64 // ms from due time to terminal result, successful requests
	late      []float64 // ms the generator sent after the due time
	wall      float64   // s, first due time to last terminal result
	setup     float64
	rss       float64
	queueEnd  float64 // ringsimd_queue_len when the schedule ended
	backlog   bool
	missInsts float64
	before    map[string]float64
	after     map[string]float64
	profiles  []string
	fresh     []cell // new cells this step stored
	freshRes  []results.Result
	problems  []string
}

// valid reports whether the step's latencies are a measurement: the
// generator kept to the schedule and the backlog did not grow.
func (s *stepResult) valid() bool {
	return !s.backlog && quantile(s.late, 0.99) <= lateLimit
}

func (s *stepResult) passes() bool {
	return s.ok == s.sent && s.valid() && quantile(s.lat, 0.99) <= latencyLimit
}

// serveInputs is the stored population and the generator of step
// schedules.
type serveInputs struct {
	stored []cell
	cfgs   []core.Config
	rng    *rand.Rand
	misses int // new cells drawn so far
}

func serveWarmInputs(seed uint64) (*serveInputs, error) {
	s := size()
	rng := rngFor("serve-warm-open", seed, 0)
	in := &serveInputs{cfgs: harness.PaperConfigs(), rng: rng}
	for _, spec := range seededPrograms(rng, workload.Names(), s.servePrograms) {
		for _, cfg := range in.cfgs[:s.serveConfigs] {
			c, err := newCell(cfg, spec, s.serveInsts, s.serveWarm)
			if err != nil {
				return nil, err
			}
			in.stored = append(in.stored, c)
		}
	}
	return in, nil
}

// schedule draws one step: n requests at sorted uniform due offsets over
// the step (a Poisson process conditioned on its count), exactly
// missShare of them new cells.
func (in *serveInputs) schedule(rate, seconds float64) ([]time.Duration, []cell, error) {
	s := size()
	n := int(rate*seconds + 0.5)
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(in.rng.Float64() * seconds * float64(time.Second))
	}
	sort.Slice(due, func(a, b int) bool { return due[a] < due[b] })
	misses := int(float64(n)*missShare + 0.5)
	isMiss := make([]bool, n)
	for _, i := range in.rng.Perm(n)[:misses] {
		isMiss[i] = true
	}
	cells := make([]cell, n)
	for i := range cells {
		if !isMiss[i] {
			cells[i] = in.stored[in.rng.IntN(len(in.stored))]
			continue
		}
		// New cells cycle through every program and configuration, so
		// each step simulates the same mix whatever the seed.
		names := workload.Names()
		spec := fmt.Sprintf("%s@%d", names[in.misses%len(names)], streamSeed(in.rng))
		c, err := newCell(in.cfgs[in.misses%len(in.cfgs)], spec, s.serveInsts, s.serveWarm)
		in.misses++
		if err != nil {
			return nil, nil, err
		}
		cells[i] = c
	}
	return due, cells, nil
}

func runServeWarm(e *env, seed uint64, seconds float64, traced bool) (*outcome, error) {
	in, err := serveWarmInputs(seed)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	cacheDir, err := e.mkdir("serve-cache")
	if err != nil {
		return nil, err
	}
	stored, err := e.populate(cacheDir, in)
	if err != nil {
		return nil, err
	}
	rates, durations, midIdx := serveSteps(seconds)
	var steps []*stepResult
	for i, rate := range rates {
		if traced && i != midIdx {
			// The traced run probes the middle rate only, but draws
			// every schedule so the middle one is the same.
			if _, _, err := in.schedule(rate, durations[i]); err != nil {
				return nil, err
			}
			continue
		}
		e.timeRef(false)
		st, err := e.serveStep(cacheDir, in, stored, rate, durations[i], traced)
		if err != nil {
			return nil, err
		}
		e.timeRef(true)
		steps = append(steps, st)
		out.attempted += st.sent
		out.failed += st.sent - st.ok
		out.problems = append(out.problems, st.problems...)
	}
	rng := rngFor("serve-warm-open/check", seed, 0)
	for _, st := range steps {
		for _, i := range sampleIndices(rng, len(st.fresh), 1) {
			if msg := sameAsExecute(st.fresh[i].req, st.freshRes[i]); msg != "" {
				out.problems = append(out.problems, msg)
				out.failed++
			}
		}
	}
	if traced {
		return e.traceServe(seed, out, steps[0], seconds)
	}
	out.addf("serve-warm-open: %d stored cells, %.0f%% new cells, limit p99 <= %.0fms", len(in.stored), 100*missShare, latencyLimit)
	for _, st := range steps {
		verdict := "meets limit"
		if !st.passes() {
			verdict = "misses limit"
		}
		out.addf("  rate %5.0f/s for %.1fs: %4d sent, %4d ok, p50 %7.2fms, p99 %8.2fms (n=%d), gen late p99 %.2fms, queue at end %.0f, backlog grew %v, setup %.3fs: %s",
			st.rate, st.seconds, st.sent, st.ok, quantile(st.lat, 0.5), quantile(st.lat, 0.99), len(st.lat), quantile(st.late, 0.99), st.queueEnd, st.backlog, st.setup, verdict)
	}
	mid := steps[midIdx]
	if !mid.valid() {
		return nil, fmt.Errorf("%s\nat the middle rate %.0f/s the generator ran late (p99 %.1fms) or the backlog grew (%v); its latencies are not a measurement",
			strings.Join(out.table, "\n"), mid.rate, quantile(mid.late, 0.99), mid.backlog)
	}
	// Set-up here is a restart over the filled store and journal, so it
	// includes journal replay.
	setups, err := e.moreSetups(daemonOpts{}, cacheDir, len(steps))
	if err != nil {
		return nil, err
	}
	for _, st := range steps {
		setups = append(setups, st.setup)
	}
	// Latencies and set-up time are reported at the reference host speed
	// (hostref.go). The wall, simulation rate and goodput of an open
	// loop follow its fixed schedule and offered rates, so they are not
	// rescaled.
	slow := e.slowdown()
	m := out.metrics
	m["setup_s"] = median(setups) / slow
	m["peak_rss_mb"] = medianOf(steps, func(s *stepResult) float64 { return s.rss })
	m["wall_s"] = mid.wall
	m["sim_minst_per_s"] = mid.missInsts / mid.wall / 1e6
	m["p50_ms"] = quantile(mid.lat, 0.50) / slow
	m["p99_ms"] = quantile(mid.lat, 0.99) / slow
	m["ok_frac"] = float64(out.attempted-out.failed) / float64(out.attempted)
	// Goodput is the most requests per second answered within the limit
	// at any offered rate. Near the box's capacity the within-limit share
	// falls gradually, so the figure moves continuously where the
	// highest step meeting the limit would jump by a factor of two.
	highest, met := 0.0, true
	for _, st := range steps {
		var within int
		for _, l := range st.lat {
			if l <= latencyLimit {
				within++
			}
		}
		m["goodput_rps"] = max(m["goodput_rps"], float64(within)/st.wall)
		if met = met && st.passes(); met {
			highest = st.rate
		}
	}
	out.addf("  highest rate meeting the limit: %.0f/s; goodput %.1f requests/s answered within %.0fms", highest, m["goodput_rps"], latencyLimit)
	out.addf("  latencies above as measured; p50_ms, p99_ms and setup_s at the reference host speed: %s", e.refLine())
	return out, nil
}

// serveSteps returns the step rates and lengths and the index of the
// middle rate (the lower of the two middle ones). The middle rate, where
// p50 and p99 are read, gets about half the run so that its p99 has more
// than ten samples beyond it; the steps above it decide goodput and get
// longer than the ones below. They must stay this long: at 1.6 s the
// 1200/s step ended before its backlog held hits back and answered up to
// 1000 requests/s within the limit, so goodput swung with the step.
func serveSteps(seconds float64) (rates, durations []float64, mid int) {
	rates = size().serveRates
	mid = (len(rates) - 1) / 2
	shares := []float64{0.5, 0.5, 8, 3, 3, 2}
	var total float64
	for _, s := range shares {
		total += s
	}
	durations = make([]float64, len(rates))
	for i := range durations {
		durations[i] = seconds * shares[i] / total
	}
	return rates, durations, mid
}

// populate fills the store and journal with every stored cell through a
// sweep on a daemon that is then stopped, and returns the stored results
// by key.
func (e *env) populate(cacheDir string, in *serveInputs) (map[string]results.Result, error) {
	s := size()
	d, _, err := e.startDaemon(daemonOpts{cacheDir: cacheDir})
	if err != nil {
		return nil, err
	}
	defer d.stop()
	specs := map[string]bool{}
	var programs []string
	for _, c := range in.stored {
		name := c.req.Workload.Name()
		if !specs[name] {
			specs[name] = true
			programs = append(programs, name)
		}
	}
	body := map[string]any{"configs": wireConfigs(in.cfgs[:s.serveConfigs]), "programs": programs, "insts": s.serveInsts, "warmup": s.serveWarm}
	var v sweepView
	if err := d.c.do("POST", "/v1/sweeps", body, http.StatusAccepted, &v); err != nil {
		return nil, err
	}
	for deadline := time.Now().Add(150 * time.Second); !terminal(v.Status); {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("population sweep not finished after 150s")
		}
		time.Sleep(10 * time.Millisecond)
		if err := d.c.do("GET", "/v1/sweeps/"+v.ID, nil, http.StatusOK, &v); err != nil {
			return nil, err
		}
	}
	if v.Status != "done" || len(v.Results) != len(in.stored) {
		return nil, fmt.Errorf("population sweep ended %s with %d results", v.Status, len(v.Results))
	}
	stored := make(map[string]results.Result, len(v.Results))
	for _, r := range v.Results {
		stored[r.Key] = r
	}
	for _, c := range in.stored {
		if _, ok := stored[c.key]; !ok {
			return nil, fmt.Errorf("population is missing %s/%s", c.req.Config.Name, c.req.Workload.Name())
		}
	}
	return stored, nil
}

// serveStep restarts the daemon over the filled directories and drives
// one open-loop rate step through it.
func (e *env) serveStep(cacheDir string, in *serveInputs, stored map[string]results.Result, rate, seconds float64, probe bool) (*stepResult, error) {
	due, cells, err := in.schedule(rate, seconds)
	if err != nil {
		return nil, err
	}
	st := &stepResult{rate: rate, seconds: seconds, sent: len(cells)}
	d, setup, err := e.startDaemon(daemonOpts{cacheDir: cacheDir, pprof: probe})
	if err != nil {
		return nil, err
	}
	defer d.stop()
	st.setup = setup.Seconds()
	if st.before, err = d.c.scrape(); err != nil {
		return nil, err
	}
	stopProf := make(chan struct{})
	profDone := make(chan []string, 1)
	if probe {
		go func() { profDone <- e.profileLoop(d.pprof, stopProf) }()
	} else {
		profDone <- nil
	}

	var (
		wg          sync.WaitGroup
		outstanding atomic.Int64
		mu          sync.Mutex
		lastDone    time.Time
	)
	got := make([]*results.Result, len(cells))
	errs := make([]error, len(cells))
	lat := make([]float64, len(cells))
	late := make([]float64, len(cells))
	backlogAt := make([]int64, len(cells))
	t0 := time.Now().Add(20 * time.Millisecond)
	for i := range cells {
		at := t0.Add(due[i])
		time.Sleep(time.Until(at))
		backlogAt[i] = outstanding.Load()
		outstanding.Add(1)
		wg.Add(1)
		go func(i int, at time.Time) {
			defer wg.Done()
			defer outstanding.Add(-1)
			late[i] = float64(time.Since(at).Microseconds()) / 1e3
			res, err := fetchRun(d.c, cells[i], at.Add(60*time.Second))
			now := time.Now()
			mu.Lock()
			if now.After(lastDone) {
				lastDone = now
			}
			mu.Unlock()
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = res
			lat[i] = float64(now.Sub(at).Microseconds()) / 1e3
		}(i, at)
	}
	if m, err := d.c.scrape(); err == nil {
		st.queueEnd = m["ringsimd_queue_len"]
	}
	wg.Wait()
	close(stopProf)
	st.profiles = <-profDone
	if st.after, err = d.c.scrape(); err != nil {
		return nil, err
	}
	st.rss = d.stop()
	st.wall = lastDone.Sub(t0).Seconds()

	// The backlog grew when the requests outstanding at each send rose
	// from the first third of the schedule to the last, or the daemon's
	// queue still held work when the schedule ended.
	third := len(cells) / 3
	var first, last float64
	for i := 0; i < third; i++ {
		first += float64(backlogAt[i])
		last += float64(backlogAt[len(cells)-1-i])
	}
	if third > 0 {
		first, last = first/float64(third), last/float64(third)
	}
	st.backlog = last > 2*first+4 || st.queueEnd > 8

	seen := map[string]bool{}
	for i, c := range cells {
		st.late = append(st.late, late[i])
		r := got[i]
		if r == nil {
			st.problems = append(st.problems, fmt.Sprintf("rate %.0f/s request %d: %v", rate, i, errs[i]))
			continue
		}
		if want, ok := stored[c.key]; ok {
			a, _ := json.Marshal(want)
			b, _ := json.Marshal(r)
			if string(a) != string(b) {
				st.problems = append(st.problems, fmt.Sprintf("%s/%s: served result differs from the stored one", c.req.Config.Name, c.req.Workload.Name()))
				continue
			}
		} else if !seen[c.key] {
			seen[c.key] = true
			st.fresh = append(st.fresh, c)
			st.freshRes = append(st.freshRes, *r)
			st.missInsts += budgetInsts(c.req)
		}
		st.ok++
		st.lat = append(st.lat, lat[i])
	}
	return st, nil
}

// fetchRun submits one run and polls it until the client holds a
// terminal result, checking that the result is the request's own. Polls
// start 1 ms apart and back off to 8 ms, so runs that simulate do not
// flood the two connections.
func fetchRun(c *client, cl cell, deadline time.Time) (*results.Result, error) {
	var v runView
	if err := c.do("POST", "/v1/runs", cl.body, http.StatusAccepted, &v); err != nil {
		return nil, err
	}
	for wait := time.Millisecond; !terminal(v.Status); wait = min(2*wait, 8*time.Millisecond) {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("run %s not finished in time", v.ID)
		}
		time.Sleep(wait)
		if err := c.do("GET", "/v1/runs/"+v.ID, nil, http.StatusOK, &v); err != nil {
			return nil, err
		}
	}
	if v.ID != cl.key || v.Status != "done" || v.Result == nil || v.Result.Key != cl.key || v.Result.Failed() {
		return nil, fmt.Errorf("run %s ended %s (%s)", v.ID, v.Status, v.Error)
	}
	return v.Result, nil
}
