package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"c3d/internal/core"
	"c3d/internal/machine"
	"c3d/internal/workload"
	"c3d/pkg/c3d"
)

// params sizes one workload. Every workload has the size the benchmark
// measures and a tiny size for the benchmark's own tests.
type params struct {
	accesses int    // accesses per thread (simulation workloads)
	sampling string // SMARTS schedule (fig6-sampled)
	sockets  int    // largest verified socket count (modelcheck-3s)
}

// workloadDef is one benchmark workload: what a child process runs in each
// mode, and how many operations (simulations or verified models) one run
// attempts.
type workloadDef struct {
	full, tiny params
	ops        func(p params) int
	setup      func(ctx context.Context, j job, p params) error
	run        func(ctx context.Context, j job, p params, r *childReport) error
	trace      func(ctx context.Context, j job, p params, r *childReport) error
}

var workloads = map[string]workloadDef{
	// canneal at 4x8 is the paper's "one Fig. 6 bar": capacity-bound,
	// detailed timing only. Its two designs load coherence and sim
	// differently, so it is run under both.
	"canneal-pair": {
		full:  params{accesses: 12_000},
		tiny:  params{accesses: 300},
		ops:   func(params) int { return len(pairDesigns) },
		setup: cannealSetup,
		run:   cannealRun,
		trace: cannealTrace,
	},
	// The sampled Fig. 6 campaign runs the same cache/machine layers mostly
	// through functional warming, plus the sweep harness, the materialised
	// trace cache and 45 machine constructions.
	"fig6-sampled": {
		full:  params{accesses: 3_000, sampling: "stretch=700,warm=30,win=30"},
		tiny:  params{accesses: 400, sampling: "stretch=80,warm=4,win=8"},
		ops:   func(params) int { return fig6Sims },
		setup: fig6Setup,
		run:   fig6Run,
		trace: fig6Trace,
	},
	// The model check runs internal/core and internal/mc and no simulator
	// layer: the no-change control for cache and sim optimisations.
	"modelcheck-3s": {
		full:  params{sockets: 3},
		tiny:  params{sockets: 2},
		ops:   func(p params) int { return 2 * (p.sockets - 1) },
		setup: modelSetup,
		run:   modelVerify,
		trace: modelTrace,
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// --- canneal-pair ---

var pairDesigns = []c3d.Design{c3d.Baseline, c3d.C3D}

const cannealName = "canneal"

func cannealSession(j job, p params) (*c3d.Session, error) {
	return c3d.New(
		c3d.WithSockets(4),
		c3d.WithPolicy(c3d.Interleave),
		c3d.WithAccesses(p.accesses),
		c3d.WithSeed(j.Seed),
		c3d.WithStreaming(true),
	)
}

// cannealInputs resolves the machine configuration and generator options
// Session.Simulate uses for canneal under design d.
func cannealInputs(sess *c3d.Session, d c3d.Design, j job, p params) (machine.Config, workload.Spec, workload.Options, error) {
	s, err := sess.With(c3d.WithDesign(d))
	if err != nil {
		return machine.Config{}, workload.Spec{}, workload.Options{}, err
	}
	mcfg, err := s.MachineConfigFor(cannealName)
	if err != nil {
		return machine.Config{}, workload.Spec{}, workload.Options{}, err
	}
	spec, err := workload.Get(cannealName)
	if err != nil {
		return machine.Config{}, workload.Spec{}, workload.Options{}, err
	}
	opts := workload.Options{
		Threads:           min(spec.DefaultThreads, mcfg.Cores()),
		Scale:             mcfg.Scale,
		AccessesPerThread: p.accesses,
		SeedOffset:        j.Seed,
	}
	return mcfg, spec, opts, nil
}

func cannealSetup(_ context.Context, j job, p params) error {
	sess, err := cannealSession(j, p)
	if err != nil {
		return err
	}
	mcfg, spec, opts, err := cannealInputs(sess, pairDesigns[0], j, p)
	if err != nil {
		return err
	}
	machine.New(mcfg)
	_, err = workload.NewSource(spec, opts)
	return err
}

func cannealRun(ctx context.Context, j job, p params, r *childReport) error {
	sess, err := cannealSession(j, p)
	if err != nil {
		return err
	}
	r.StartNS = now()
	for _, d := range pairDesigns {
		o := op{Name: d.String(), Weight: 1}
		res, err := sess.Simulate(ctx, cannealName, c3d.WithDesign(d))
		if err != nil {
			o.Err = err.Error()
		} else {
			o.Output = canonical(res.RunResult)
			r.Accesses += float64(res.EffectiveThreads * p.accesses)
		}
		r.Ops = append(r.Ops, o)
	}
	r.DoneNS = now()
	return nil
}

// cannealTrace runs the pair through the layers' own entry points, so each
// call can be timed, and reads every modelled counter after each run.
func cannealTrace(ctx context.Context, j job, p params, r *childReport) error {
	sess, err := cannealSession(j, p)
	if err != nil {
		return err
	}
	stop, err := startTracing(r)
	if err != nil {
		return err
	}
	r.StartNS = now()
	for _, d := range pairDesigns {
		o := op{Name: d.String(), Weight: 1}
		mcfg, spec, opts, err := cannealInputs(sess, d, j, p)
		if err != nil {
			return err
		}
		t := time.Now()
		src, err := workload.NewSource(spec, opts)
		r.Metrics["workload.open_s"] += time.Since(t).Seconds()
		if err != nil {
			return err
		}
		t = time.Now()
		m := machine.New(mcfg)
		r.Metrics["machine.new_s"] += time.Since(t).Seconds()
		t = time.Now()
		res, err := m.RunSource(ctx, src, machine.DefaultRunOptions())
		r.Metrics["machine.run_s"] += time.Since(t).Seconds()
		switch {
		case err != nil:
			o.Err = err.Error()
		default:
			if err := m.CheckInvariants(); err != nil {
				o.Err = err.Error()
			}
			o.Output = canonical(res)
			r.Accesses += float64(opts.Threads * p.accesses)
			for name, v := range modelCounters(m, res) {
				r.Metrics[name+"."+d.String()] = v
			}
		}
		r.Ops = append(r.Ops, o)
	}
	r.DoneNS = now()
	return stop()
}

// --- fig6-sampled ---

// fig6Sims is the campaign's simulation count: nine workloads under the
// baseline and the four evaluated designs.
const fig6Sims = 45

// fig6Event is one completed campaign simulation as the progress hook saw it.
type fig6Event struct {
	at      time.Time
	elapsed time.Duration
}

func fig6Session(j job, p params, progress func(c3d.Event)) (*c3d.Session, error) {
	spec, err := c3d.ParseSampling(p.sampling)
	if err != nil {
		return nil, err
	}
	opts := []c3d.Option{
		c3d.WithAccesses(p.accesses),
		c3d.WithSampling(spec),
		c3d.WithParallelism(runtime.GOMAXPROCS(0)),
		c3d.WithSeed(j.Seed),
	}
	if progress != nil {
		opts = append(opts, c3d.WithProgress(progress))
	}
	return c3d.New(opts...)
}

// fig6Setup builds what precedes the campaign's first simulated access: the
// session, the first job's machine and its materialised trace.
func fig6Setup(_ context.Context, j job, p params) error {
	sess, err := fig6Session(j, p, nil)
	if err != nil {
		return err
	}
	first := workload.Names()[0]
	s, err := sess.With(c3d.WithDesign(c3d.Baseline))
	if err != nil {
		return err
	}
	mcfg, err := s.MachineConfigFor(first)
	if err != nil {
		return err
	}
	machine.New(mcfg)
	spec, err := workload.Get(first)
	if err != nil {
		return err
	}
	_, err = workload.Generate(spec, workload.Options{
		Threads:           mcfg.Cores(),
		Scale:             mcfg.Scale,
		AccessesPerThread: p.accesses,
		SeedOffset:        j.Seed,
	})
	return err
}

// fig6Campaign runs the campaign and records it as one operation per
// simulation; it returns the progress events.
func fig6Campaign(ctx context.Context, j job, p params, r *childReport) ([]fig6Event, error) {
	var (
		mu     sync.Mutex
		events []fig6Event
	)
	sess, err := fig6Session(j, p, func(e c3d.Event) {
		mu.Lock()
		events = append(events, fig6Event{at: time.Now(), elapsed: e.Elapsed})
		mu.Unlock()
	})
	if err != nil {
		return nil, err
	}
	o := op{Name: "fig6", Weight: fig6Sims}
	r.StartNS = now()
	res, err := sess.Experiment(ctx, "fig6")
	r.DoneNS = now()
	if err != nil {
		o.Err = err.Error()
	} else {
		var buf bytes.Buffer
		if err := c3d.WriteResultsJSON(&buf, []c3d.ExperimentResult{*res}); err != nil {
			return nil, err
		}
		o.Output = buf.String()
		if r.CI95, err = meanHalfWidth(res.Table); err != nil {
			o.Err = err.Error()
		}
		// The campaign runs one thread per core of the paper-shape machine.
		cfg, err := sess.MachineConfigFor(cannealName)
		if err != nil {
			return nil, err
		}
		r.Accesses = float64(fig6Sims * cfg.Cores() * p.accesses)
	}
	r.Ops = append(r.Ops, o)
	return events, nil
}

func fig6Run(ctx context.Context, j job, p params, r *childReport) error {
	_, err := fig6Campaign(ctx, j, p, r)
	return err
}

func fig6Trace(ctx context.Context, j job, p params, r *childReport) error {
	stop, err := startTracing(r)
	if err != nil {
		return err
	}
	events, err := fig6Campaign(ctx, j, p, r)
	if err != nil {
		return err
	}
	if err := stop(); err != nil {
		return err
	}
	wall := time.Duration(r.DoneNS - r.StartNS)
	r.Metrics["experiments.run_s"] = wall.Seconds()
	for k, v := range sweepShape(events, time.Unix(0, r.DoneNS), wall, runtime.GOMAXPROCS(0)) {
		r.Metrics[k] = v
	}
	// The campaign's table hides per-simulation results, so the sampling
	// counts come from re-running one of its cells (canneal under c3d) on
	// the same inputs, outside the profiled region.
	sess, err := fig6Session(j, p, nil)
	if err != nil {
		return err
	}
	res, err := sess.Simulate(ctx, cannealName, c3d.WithDesign(c3d.C3D), c3d.WithStreaming(false))
	if err != nil {
		return err
	}
	if s := res.Sampling; s != nil && s.TotalAccesses > 0 {
		r.Metrics["sample.windows"] = float64(s.Windows)
		r.Metrics["sample.detailed_frac"] = float64(s.DetailedAccesses) / float64(s.TotalAccesses)
	}
	return nil
}

// sweepShape derives the campaign's load balance from its completion
// events. Once every job is claimed, the next completion leaves a worker
// idle: with P workers that is completion number total-P+1.
func sweepShape(events []fig6Event, end time.Time, wall time.Duration, workers int) map[string]float64 {
	out := map[string]float64{}
	if len(events) == 0 || wall <= 0 {
		return out
	}
	sims := make([]float64, len(events))
	busy := 0.0
	for i, e := range events {
		sims[i] = e.elapsed.Seconds()
		busy += sims[i]
	}
	sort.Float64s(sims)
	out["sweep.sim_p50_s"] = median(sims)
	out["sweep.sim_max_s"] = sims[len(sims)-1]
	out["sweep.busy_frac"] = busy / (float64(workers) * wall.Seconds())
	if idle := len(events) - workers; idle >= 0 {
		out["sweep.tail_s"] = end.Sub(events[idle].at).Seconds()
	}
	return out
}

// meanHalfWidth averages the 95% half-widths of the speedup cells
// ("value±half"), leaving out the geomean row.
func meanHalfWidth(t *c3d.Table) (float64, error) {
	sum, n := 0.0, 0
	for _, row := range t.Rows() {
		if len(row) == 0 || row[0] == "geomean" {
			continue
		}
		for _, cell := range row[1:] {
			_, half, ok := strings.Cut(cell, "±")
			if !ok {
				return 0, fmt.Errorf("fig6 cell %q carries no confidence half-width", cell)
			}
			v, err := strconv.ParseFloat(half, 64)
			if err != nil {
				return 0, fmt.Errorf("fig6 cell %q: %w", cell, err)
			}
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("fig6 table has no speedup cells")
	}
	return sum / float64(n), nil
}

// --- modelcheck-3s ---

func modelSession() (*c3d.Session, error) {
	return c3d.New(c3d.WithParallelism(runtime.GOMAXPROCS(0)))
}

// modelSetup builds the session and the first model Verify explores.
func modelSetup(context.Context, job, params) error {
	if _, err := modelSession(); err != nil {
		return err
	}
	core.NewProtocolModel(core.ProtocolConfig{Sockets: 2, LoadsPerCore: 1, StoresPerCore: 1})
	return nil
}

// modelVerify runs Verify and records one operation per model.
func modelVerify(ctx context.Context, _ job, p params, r *childReport) error {
	sess, err := modelSession()
	if err != nil {
		return err
	}
	r.StartNS = now()
	res, err := sess.Verify(ctx, c3d.VerifyRequest{Sockets: p.sockets})
	r.DoneNS = now()
	if err != nil {
		return err
	}
	for _, rep := range res.Reports {
		o := op{Name: rep.Model, Weight: 1, Output: canonical(rep)}
		if !rep.OK() {
			o.Err = "model check did not pass: " + rep.String()
		}
		r.States += float64(rep.StatesExplored)
		r.Transitions += float64(rep.TransitionsSeen)
		r.Ops = append(r.Ops, o)
	}
	return nil
}

func modelTrace(ctx context.Context, j job, p params, r *childReport) error {
	stop, err := startTracing(r)
	if err != nil {
		return err
	}
	if err := modelVerify(ctx, j, p, r); err != nil {
		return err
	}
	r.Metrics["mc.verify_s"] = float64(r.DoneNS-r.StartNS) / 1e9
	r.Metrics["mc.states"] = r.States
	r.Metrics["mc.transitions"] = r.Transitions
	return stop()
}

// --- tracing shared by the workloads ---

// startTracing starts the CPU profile and allocation accounting; the
// returned stop folds both into r.Metrics.
func startTracing(r *childReport) (stop func() error, err error) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	return func() error {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		pprof.StopCPUProfile()
		if r.Accesses > 0 {
			r.Metrics["runtime.allocs_per_kaccess"] = float64(after.Mallocs-before.Mallocs) / (r.Accesses / 1000)
		}
		r.Metrics["runtime.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		r.Metrics["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
		samples, err := parseCPUProfile(prof.Bytes())
		if err != nil {
			return err
		}
		self := foldProfile(samples)
		total := 0.0
		for _, v := range self {
			total += v
		}
		for l, v := range self {
			r.Metrics[l+".self_s"] = v
			if total > 0 {
				r.Metrics[l+".self_share"] = v / total
			}
		}
		return nil
	}, nil
}

// canonical renders a result as the bytes compared against references and
// across runs.
func canonical(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unencodable result: " + err.Error()
	}
	return string(b)
}

func now() int64 { return time.Now().UnixNano() }
