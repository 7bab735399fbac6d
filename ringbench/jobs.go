package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/harness"
	"repro/internal/results"
)

// Wire views of the ringsimd API, reduced to the fields the benchmark
// reads.
type runView struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Result *results.Result `json:"result"`
	Error  string          `json:"error"`
}

type sweepView struct {
	ID      string           `json:"id"`
	Status  string           `json:"status"`
	Failed  int              `json:"failed"`
	Lost    int              `json:"lost"`
	Results []results.Result `json:"results"`
}

type exploreView struct {
	ID            string      `json:"id"`
	Status        string      `json:"status"`
	Failed        int         `json:"failed"`
	SimsRun       int         `json:"sims_run"`
	CacheHits     int         `json:"cache_hits"`
	Frontier      []dse.Point `json:"frontier"`
	Points        []dse.Point `json:"points"`
	Error         string      `json:"error"`
	SimsAvoided   int         `json:"sims_avoided"`
	TwinVerified  int         `json:"twin_verified"`
	TwinMAPE      float64     `json:"twin_mape"`
	ExactConfirms int         `json:"exact_confirms"`
}

func terminal(status string) bool {
	return status == "done" || status == "failed" || status == "lost"
}

// wireConfigs renders configurations the way POST /v1/sweeps takes them.
func wireConfigs(cfgs []core.Config) []map[string]core.Config {
	out := make([]map[string]core.Config, len(cfgs))
	for i, c := range cfgs {
		out[i] = map[string]core.Config{"config": c}
	}
	return out
}

// jobRep is one measured submission of a sweep or exploration against a
// freshly started daemon over empty directories.
type jobRep struct {
	setup float64 // seconds, launch until ready
	wall  float64 // seconds, submit until terminal
	// done is the number of runs the daemon finished for the job and
	// doneAt[i] the milliseconds after submission at which the (i+1)-th
	// finished, read from /metrics every 10 ms.
	done   int
	doneAt []float64
	rss    float64 // MiB, summed peak RSS of daemon and workers
	insts  float64 // instruction budget the job simulated
	// before/after are /metrics scrapes around the job.
	before, after map[string]float64
	profiles      []string // CPU profiles of the daemon, when probed
	workerLogs    []string
	late          []float64 // ms each /metrics poll ran behind its tick
	// leases is ringsimd_fleet_leases_outstanding at each poll.
	leases []float64
}

// job describes how to submit one composite request and how to tell it
// has finished.
type job struct {
	opts daemonOpts
	// submit posts the request and returns its id.
	submit func(c *client) (string, error)
	// finished fetches the job's view; it reports true once terminal.
	// Sweeps call it only after /metrics shows every member finished.
	finished func(c *client, id string) (bool, error)
	// members is the number of runs the job finishes (0 = unknown: poll
	// the view every tick instead).
	members int
	// probe captures CPU profiles of the daemon while the job runs.
	probe bool
}

// runJob starts a daemon over fresh directories, submits the job, polls
// until it is terminal, and stops the daemon. The reference loop is
// timed before and after (see hostref.go).
func (e *env) runJob(j job) (jobRep, error) {
	var rep jobRep
	e.timeRef(false)
	dir, err := e.mkdir("cache")
	if err != nil {
		return rep, err
	}
	o := j.opts
	o.cacheDir = dir
	o.pprof = j.probe
	d, setup, err := e.startDaemon(o)
	if err != nil {
		return rep, err
	}
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	rep.setup = setup.Seconds()
	if rep.before, err = d.c.scrape(); err != nil {
		return rep, err
	}
	stopProf := make(chan struct{})
	profDone := make(chan []string, 1)
	if j.probe {
		go func() { profDone <- e.profileLoop(d.pprof, stopProf) }()
	} else {
		profDone <- nil
	}
	t0 := time.Now()
	id, err := j.submit(d.c)
	if err != nil {
		close(stopProf)
		<-profDone
		return rep, err
	}
	base := rep.before["ringsimd_runs_completed_total"] + rep.before["ringsimd_runs_failed_total"]
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	deadline := t0.Add(150 * time.Second)
	for {
		due := <-tick.C
		rep.late = append(rep.late, float64(time.Since(due).Microseconds())/1e3)
		if time.Now().After(deadline) {
			close(stopProf)
			<-profDone
			return rep, fmt.Errorf("job %s not finished after 150s", id)
		}
		m, err := d.c.scrape()
		if err != nil {
			close(stopProf)
			<-profDone
			return rep, err
		}
		rep.leases = append(rep.leases, m["ringsimd_fleet_leases_outstanding"])
		n := int(m["ringsimd_runs_completed_total"] + m["ringsimd_runs_failed_total"] - base)
		at := float64(time.Since(t0).Microseconds()) / 1e3
		for len(rep.doneAt) < n {
			rep.doneAt = append(rep.doneAt, at)
		}
		if j.members > 0 && n < j.members {
			continue
		}
		ok, err := j.finished(d.c, id)
		if err != nil {
			close(stopProf)
			<-profDone
			return rep, err
		}
		if ok {
			break
		}
	}
	rep.wall = time.Since(t0).Seconds()
	close(stopProf)
	rep.profiles = <-profDone
	if rep.after, err = d.c.scrape(); err != nil {
		return rep, err
	}
	rep.done = int(rep.after["ringsimd_runs_completed_total"] + rep.after["ringsimd_runs_failed_total"] - base)
	rep.rss = d.stop()
	for _, w := range d.workers {
		rep.workerLogs = append(rep.workerLogs, w.log())
	}
	d = nil
	e.timeRef(true)
	return rep, nil
}

// profileLoop fetches back-to-back one-second CPU profiles from the
// daemon's pprof listener until stop is closed, and returns the files.
func (e *env) profileLoop(base string, stop <-chan struct{}) []string {
	var files []string
	hc := &http.Client{Timeout: 30 * time.Second}
	for i := 0; ; i++ {
		select {
		case <-stop:
			return files
		default:
		}
		resp, err := hc.Get(base + "/debug/pprof/profile?seconds=1")
		if err != nil {
			return files
		}
		path := filepath.Join(e.dir, fmt.Sprintf("cpu-%d-%d.pprof", time.Now().UnixNano(), i))
		f, err := os.Create(path)
		if err == nil {
			_, err = io.Copy(f, resp.Body)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return files
		}
		files = append(files, path)
	}
}

// sweepJob submits one POST /v1/sweeps and waits for it.
func sweepJob(o daemonOpts, body map[string]any, members int, out *sweepView) job {
	return job{
		opts:    o,
		members: members,
		submit: func(c *client) (string, error) {
			var v sweepView
			if err := c.do("POST", "/v1/sweeps", body, http.StatusAccepted, &v); err != nil {
				return "", err
			}
			return v.ID, nil
		},
		finished: func(c *client, id string) (bool, error) {
			var v sweepView
			if err := c.do("GET", "/v1/sweeps/"+id, nil, http.StatusOK, &v); err != nil {
				return false, err
			}
			*out = v
			return terminal(v.Status), nil
		},
	}
}

// checkSweep verifies a finished sweep against the requests the
// benchmark generated: every member done, every key equal to the
// recomputed content key, and a seeded sample bit-identical to an
// in-process harness.Execute. It returns the number of members that
// failed a check and a description of each failure.
func checkSweep(v sweepView, reqs []harness.Request, keys []string, rng *rand.Rand, sample int) (bad int, problems []string) {
	if v.Status != "done" || v.Failed != 0 || v.Lost != 0 {
		problems = append(problems, fmt.Sprintf("sweep %s ended %s with %d failed, %d lost", v.ID, v.Status, v.Failed, v.Lost))
	}
	if len(v.Results) != len(reqs) {
		problems = append(problems, fmt.Sprintf("sweep returned %d results, want %d", len(v.Results), len(reqs)))
		return len(reqs), problems
	}
	for i, r := range v.Results {
		switch {
		case r.Failed():
			problems = append(problems, fmt.Sprintf("%s: %s", keys[i], r.Err))
		case r.Key != keys[i]:
			problems = append(problems, fmt.Sprintf("member %d key %s, want %s", i, r.Key, keys[i]))
		case r.Config != reqs[i].Config.Name || r.Program != reqs[i].Workload.Name():
			problems = append(problems, fmt.Sprintf("member %d is %s/%s, want %s/%s", i, r.Config, r.Program, reqs[i].Config.Name, reqs[i].Workload.Name()))
		default:
			continue
		}
		bad++
	}
	for _, i := range sampleIndices(rng, len(reqs), sample) {
		if msg := sameAsExecute(reqs[i], v.Results[i]); msg != "" {
			problems = append(problems, msg)
			bad++
		}
	}
	return bad, problems
}

// sameAsExecute re-runs a request in process and compares its Stats with
// a served result, byte for byte in their JSON form.
func sameAsExecute(req harness.Request, got results.Result) string {
	run := harness.Execute(req)
	if run.Err != nil {
		return fmt.Sprintf("in-process %s/%s: %v", req.Config.Name, req.Workload.Name(), run.Err)
	}
	want, _ := json.Marshal(run.Stats)
	have, _ := json.Marshal(got.Stats)
	if string(want) != string(have) {
		return fmt.Sprintf("%s/%s: served stats differ from in-process Execute", req.Config.Name, req.Workload.Name())
	}
	return ""
}

// sampleIndices draws k distinct indices below n.
func sampleIndices(rng *rand.Rand, n, k int) []int {
	if k > n {
		k = n
	}
	return rng.Perm(n)[:k]
}

// keysOf computes the content key of every request.
func keysOf(reqs []harness.Request) ([]string, error) {
	keys := make([]string, len(reqs))
	for i, r := range reqs {
		k, err := results.NewRequest(r).Key()
		if err != nil {
			return nil, err
		}
		keys[i] = k
	}
	return keys, nil
}
