package dse

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/layout"
	"repro/internal/results"
	"repro/internal/workload"
)

// EvalStats reports how one candidate evaluation was satisfied.
type EvalStats struct {
	// Sims is the number of simulations actually run.
	Sims int
	// CacheHits is the number of program runs answered from the result
	// store without simulating.
	CacheHits int
}

// Evaluator scores one materialized configuration on a workload.
// programs is the candidate's scenario (spec strings, possibly
// synthetic); nil means the evaluator's own default suite.
// Implementations must be safe for concurrent use: the engine evaluates
// whole batches at once.
type Evaluator interface {
	Evaluate(cfg core.Config, programs []string) (Objectives, EvalStats, error)
}

// FidelityEvaluator is an optional extension of Evaluator: an
// implementation that can derive a variant of itself running at a given
// sampling fidelity (harness.ExecuteSampled). The engine uses it to run
// an exploration's search tier sampled while keeping the original
// evaluator for the exact confirmation of the final frontier; the two
// variants share the result store, and sampled results key distinctly
// from exact ones, so the tiers never contaminate each other's cache.
type FidelityEvaluator interface {
	Evaluator
	WithSampling(harness.Sampling) Evaluator
}

// SimEvaluator scores candidates locally: every workload program runs
// through harness.Execute behind the content-addressed result store, and
// the area objective comes from the Section 3.2 layout model. It is the
// evaluator the CLI and examples use; the ringsimd server substitutes its
// own implementation that routes the same requests through its worker
// pool.
type SimEvaluator struct {
	// Programs is the workload suite every candidate is scored on.
	Programs []string
	// Insts and Warmup are the harness.Request scalars.
	Insts, Warmup uint64
	// Sampling selects the execution fidelity of every program run (zero
	// value = exact). It flows into the request's content key, so sampled
	// scores never collide with exact ones in the Store.
	Sampling harness.Sampling
	// Store caches results by content hash; nil means a private
	// in-memory LRU (cache hits then only occur within one exploration).
	Store results.Store

	once sync.Once
}

// WithSampling implements FidelityEvaluator: the returned evaluator runs
// every program at the given fidelity and shares this evaluator's store.
func (e *SimEvaluator) WithSampling(sp harness.Sampling) Evaluator {
	e.init()
	return &SimEvaluator{
		Programs: e.Programs,
		Insts:    e.Insts,
		Warmup:   e.Warmup,
		Sampling: sp,
		Store:    e.Store,
	}
}

// init lazily defaults the store so the zero-value evaluator works.
func (e *SimEvaluator) init() {
	e.once.Do(func() {
		if e.Store == nil {
			e.Store = results.NewMemoryLRU(4096)
		}
	})
}

// Evaluate runs the candidate's workload (or, when programs is nil, the
// evaluator's default suite) for cfg and reduces it to (mean IPC, area).
func (e *SimEvaluator) Evaluate(cfg core.Config, programs []string) (Objectives, EvalStats, error) {
	e.init()
	var st EvalStats
	if programs == nil {
		programs = e.Programs
	}
	if len(programs) == 0 {
		return Objectives{}, st, fmt.Errorf("dse: evaluator has no programs")
	}
	var sumIPC float64
	for _, prog := range programs {
		spec, err := workload.ParseSpec(prog)
		if err != nil {
			return Objectives{}, st, err
		}
		req := harness.Request{Config: cfg, Workload: spec, Insts: e.Insts, Warmup: e.Warmup, Sampling: e.Sampling}
		key, err := results.NewRequest(req).Key()
		if err != nil {
			return Objectives{}, st, err
		}
		if res, hit, err := e.Store.Get(key); err == nil && hit {
			st.CacheHits++
			stats := res.Stats
			sumIPC += stats.IPC()
			continue
		}
		run := harness.Execute(req)
		st.Sims++
		if run.Err != nil {
			return Objectives{}, st, fmt.Errorf("dse: %s/%s: %w", cfg.Name, prog, run.Err)
		}
		res, err := results.FromRun(req, run)
		if err != nil {
			return Objectives{}, st, err
		}
		_ = e.Store.Put(key, res)
		stats := run.Stats
		sumIPC += stats.IPC()
	}
	return Objectives{
		IPC:  sumIPC / float64(len(programs)),
		Area: Area(cfg),
	}, st, nil
}

// Area prices a configuration's cluster array with the paper's layout
// model: per-cluster block areas from the Table 1 cell model (issue
// queues and register files sized from the config), summed over both
// datapath sides and multiplied by the cluster count. Front-end and
// memory-hierarchy area is identical across candidates that share a base
// config, so the cluster array is the discriminating term.
func Area(cfg core.Config) float64 {
	lc := layout.DefaultConfig()
	lc.IssueQueueEntries = cfg.IQInt
	lc.CommQueueEntries = cfg.IQComm
	lc.Registers = cfg.RegsInt
	b := layout.Compute(lc)
	// One cluster = INT side + FP side: two issue queues and two register
	// files (the FP twins are sized identically in this search space),
	// one comm queue, and the three datapath blocks.
	perCluster := 2*b.IssueQueue.Area + b.CommQueue.Area + 2*b.RegFile.Area +
		b.IntALU.Area + b.IntMult.Area + b.FPU.Area
	// Extra issue ports grow the queue's CAM/RAM cells roughly linearly
	// with width; fold issue width in as a per-side multiplier so wider
	// clusters are not free.
	width := float64(cfg.IssueInt+cfg.IssueFP) / 2
	perCluster += (width - 1) * 2 * b.IssueQueue.Area
	return perCluster * float64(cfg.Clusters)
}

// Concurrency returns the engine's default evaluation parallelism.
func Concurrency() int { return runtime.GOMAXPROCS(0) }
