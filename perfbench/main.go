// Command perfbench is the repository's benchmark. It times what users of
// the simulator run — one paper-shape canneal simulation pair, the sampled
// Fig. 6 campaign and the 3-socket protocol model check — end to end, and
// in a separate traced run attributes host time to the simulator's layers.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload canneal-pair --seed 1 --seconds 35 --trace 0
//
// Every operation runs in a fresh child process of this binary, so each
// measurement includes package initialisation and starts with empty caches,
// as a user's run does. The last line of standard output is a JSON object
// with the keys correct, attempted, failed and metrics. See README.md.
package main

import (
	"bytes"
	"context"
	"embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	// defaultSeed is the seed the recorded references belong to.
	defaultSeed = 1
	// heldOutSeed is kept out of tuning, so a performance claim made on
	// defaultSeed can be re-checked on inputs its author did not see.
	heldOutSeed = 97

	// setupProbes is how many fresh processes measure set-up per round.
	setupProbes = 3

	// childEnv carries a child's job; its presence selects child mode.
	childEnv = "PERFBENCH_CHILD"
)

// job is what the parent asks one child process to do.
type job struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Mode     string `json:"mode"` // "setup", "run" or "trace"
	Tiny     bool   `json:"tiny"`
}

// op is one operation: a simulation (or, for the Fig. 6 campaign, the 45
// simulations behind one table) or one verified model.
type op struct {
	Name   string `json:"name"`
	Weight int    `json:"weight"`
	Output string `json:"output"`
	Err    string `json:"err,omitempty"`
}

// childReport is what a child prints as its only line of standard output.
// Instants are wall-clock Unix nanoseconds, comparable with the parent's.
type childReport struct {
	ReadyNS     int64              `json:"ready_ns"` // set-up done (setup mode)
	StartNS     int64              `json:"start_ns"` // the measured call began
	DoneNS      int64              `json:"done_ns"`  // its result was in hand
	Ops         []op               `json:"ops"`
	Accesses    float64            `json:"accesses"`
	States      float64            `json:"states"`
	Transitions float64            `json:"transitions"`
	CI95        float64            `json:"ci95"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(runChild(spec))
	}
	os.Exit(runParent(os.Args[1:], os.Stdout))
}

func runChild(spec string) int {
	var j job
	if err := json.Unmarshal([]byte(spec), &j); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 2
	}
	rep, err := childMain(context.Background(), j)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child %s/%s: %v\n", j.Workload, j.Mode, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	return 0
}

func childMain(ctx context.Context, j job) (childReport, error) {
	def, ok := workloads[j.Workload]
	if !ok {
		return childReport{}, fmt.Errorf("unknown workload %q", j.Workload)
	}
	p := def.full
	if j.Tiny {
		p = def.tiny
	}
	var r childReport
	switch j.Mode {
	case "setup":
		if err := def.setup(ctx, j, p); err != nil {
			return r, err
		}
		r.ReadyNS = now()
	case "run":
		if err := def.run(ctx, j, p, &r); err != nil {
			return r, err
		}
	case "trace":
		r.Metrics = make(map[string]float64, len(perLayer))
		for _, m := range perLayer {
			r.Metrics[m.name] = 0
		}
		if err := def.trace(ctx, j, p, &r); err != nil {
			return r, err
		}
	default:
		return r, fmt.Errorf("unknown mode %q", j.Mode)
	}
	return r, nil
}

// options are the benchmark's command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool
	record   bool
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runParent(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", defaultSeed, fmt.Sprintf("workload seed (references are recorded for %d; %d is held out)", defaultSeed, heldOutSeed))
	fs.Float64Var(&o.seconds, "seconds", 35, "how long to measure")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	fs.BoolVar(&o.tiny, "tiny", false, "run the tiny size used by the benchmark's tests")
	fs.BoolVar(&o.record, "record", false, "write the outputs of this run as the references for the default seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o.trace = trace == 1
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(o.seconds*float64(time.Second))+2*time.Minute)
	defer cancel()
	res, err := bench(ctx, o, stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// childRun is one finished child process as the parent measured it.
type childRun struct {
	rep   childReport
	wall  float64 // seconds from spawn to result
	setup float64 // seconds from spawn to the end of set-up (setup mode)
	rssMB float64 // peak resident memory
}

func spawn(ctx context.Context, j job) (childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	spec, err := json.Marshal(j)
	if err != nil {
		return childRun{}, err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(spec))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	spawned := now()
	if err := cmd.Run(); err != nil {
		return childRun{}, fmt.Errorf("%s child: %w", j.Mode, err)
	}
	var c childRun
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &c.rep); err != nil {
		return childRun{}, fmt.Errorf("%s child report: %w", j.Mode, err)
	}
	c.wall = float64(c.rep.DoneNS-spawned) / 1e9
	c.setup = float64(c.rep.ReadyNS-spawned) / 1e9
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		c.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return c, nil
}

// bench runs one workload for o.seconds and returns its result, writing a
// human-readable summary to w.
func bench(ctx context.Context, o options, w io.Writer) (result, error) {
	def, ok := workloads[o.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.record && (o.seed != defaultSeed || o.tiny || o.trace) {
		return result{}, fmt.Errorf("--record needs the default seed %d, the full size and --trace 0", defaultSeed)
	}
	p := def.full
	if o.tiny {
		p = def.tiny
	}
	chk := checker{seen: map[string]string{}}
	if o.seed == defaultSeed && !o.tiny && !o.record {
		ref, err := loadReference(o.workload)
		if err != nil {
			return result{}, err
		}
		chk.ref = ref
	}
	start := time.Now()
	j := job{Workload: o.workload, Seed: o.seed, Tiny: o.tiny}

	// Rounds repeat until the next would overrun the budget. A traced round
	// pairs an untraced child with a traced one, so the tracing overhead is
	// measured on the same machine state. An untraced round ends with its
	// set-up probes: spread over the run and always following a busy
	// child, they see the same machine state in every run.
	var runs, traced []childRun
	var setups, rounds []float64
	minRounds := 3
	if o.trace {
		minRounds = 2
	}
	for len(rounds) < minRounds || time.Since(start).Seconds()+median(rounds) <= o.seconds {
		t := time.Now()
		modes := []string{"run"}
		if o.trace {
			modes = append(modes, "trace")
		}
		for _, mode := range modes {
			j.Mode = mode
			c, err := spawn(ctx, j)
			if err != nil {
				if ctx.Err() != nil {
					return result{}, err
				}
				chk.fail(def.ops(p), err)
				continue
			}
			chk.check(c.rep.Ops)
			if mode == "run" {
				runs = append(runs, c)
			} else {
				traced = append(traced, c)
			}
		}
		for i := 0; i < setupProbes && !o.trace; i++ {
			j.Mode = "setup"
			c, err := spawn(ctx, j)
			if err != nil {
				return result{}, err
			}
			setups = append(setups, c.setup)
		}
		rounds = append(rounds, time.Since(t).Seconds())
	}
	if len(runs) == 0 || (o.trace && len(traced) == 0) {
		return result{}, errors.New("no run completed")
	}

	res := result{
		Correct:   chk.failed == 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   map[string]valueUnit{},
	}
	walls := collect(runs, func(c childRun) float64 { return c.wall })
	var summary []summaryLine
	if o.trace {
		for _, m := range perLayer {
			v := median(collect(traced, func(c childRun) float64 { return c.rep.Metrics[m.name] }))
			res.Metrics[m.name] = valueUnit{v, m.unit}
		}
		tracedWall := median(collect(traced, func(c childRun) float64 { return c.wall }))
		res.Metrics["trace_overhead_frac"] = valueUnit{(tracedWall - median(walls)) / median(walls), "frac"}
	} else {
		e2e := map[string][]float64{
			"wall_s":      walls,
			"setup_s":     setups,
			"peak_rss_mb": collect(runs, func(c childRun) float64 { return c.rssMB }),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = valueUnit{median(e2e[m.name]), m.unit}
			summary = append(summary, summarise(m, e2e[m.name]))
		}
		perSecond := func(amount func(c childRun) float64) []float64 {
			return collect(runs, func(c childRun) float64 {
				return amount(c) / (float64(c.rep.DoneNS-c.rep.StartNS) / 1e9)
			})
		}
		if runs[0].rep.Accesses > 0 {
			summary = append(summary, summarise(accessesPerS, perSecond(func(c childRun) float64 { return c.rep.Accesses })))
		}
		if runs[0].rep.States > 0 {
			summary = append(summary, summarise(statesPerS, perSecond(func(c childRun) float64 { return c.rep.States })))
		}
		if runs[0].rep.CI95 > 0 {
			summary = append(summary, summarise(speedupCI95, []float64{runs[0].rep.CI95}))
		}
		summary = append(summary, summarise(errorRate, []float64{float64(chk.failed) / float64(chk.attempted)}))
	}

	fmt.Fprintf(w, "perfbench %s seed=%d: %d runs", o.workload, o.seed, len(runs))
	if o.trace {
		fmt.Fprintf(w, ", %d traced", len(traced))
	} else {
		fmt.Fprintf(w, ", %d set-up probes", len(setups))
	}
	fmt.Fprintf(w, ", %d of %d operations failed\n", chk.failed, chk.attempted)
	for _, s := range summary {
		fmt.Fprintf(w, "  %-16s %14.6g %-8s median of %d (min %.6g, max %.6g)\n", s.name, s.median, s.unit, s.n, s.min, s.max)
	}
	for _, p := range chk.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}
	if o.record && res.Correct {
		if err := writeReference(o.workload, chk.seen); err != nil {
			return result{}, err
		}
	}
	return res, nil
}

type summaryLine struct {
	name, unit       string
	median, min, max float64
	n                int
}

func summarise(m metric, xs []float64) summaryLine {
	s := summaryLine{name: m.name, unit: m.unit, median: median(xs), n: len(xs)}
	if len(xs) > 0 {
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		s.min, s.max = sorted[0], sorted[len(sorted)-1]
	}
	return s
}

func collect(cs []childRun, f func(childRun) float64) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = f(c)
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// checker counts operations and decides which failed: an error, a failed
// check inside the child, a difference from the recorded reference (default
// seed only), or a difference from an earlier run of the same operation.
type checker struct {
	ref       map[string]string // nil when no reference applies
	seen      map[string]string
	attempted int
	failed    int
	problems  []string
}

func (c *checker) check(ops []op) {
	for _, o := range ops {
		c.attempted += o.Weight
		problem := o.Err
		if problem == "" {
			if want, ok := c.ref[o.Name]; c.ref != nil && (!ok || want != o.Output) {
				problem = "output differs from the recorded reference"
			} else if first, ok := c.seen[o.Name]; ok && first != o.Output {
				problem = "output differs from an earlier run with the same seed"
			} else if !ok {
				c.seen[o.Name] = o.Output
			}
		}
		if problem != "" {
			c.failed += o.Weight
			c.problems = append(c.problems, o.Name+": "+problem)
		}
	}
}

func (c *checker) fail(weight int, err error) {
	c.attempted += weight
	c.failed += weight
	c.problems = append(c.problems, err.Error())
}

//go:embed reference
var referenceFS embed.FS

// loadReference returns the recorded outputs of a workload at the default
// seed, keyed by operation name.
func loadReference(workload string) (map[string]string, error) {
	data, err := referenceFS.ReadFile("reference/" + workload + ".json")
	if err != nil {
		return nil, fmt.Errorf("no reference recorded for %s (run with --record): %w", workload, err)
	}
	var ref map[string]string
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("reference for %s: %w", workload, err)
	}
	return ref, nil
}

// writeReference stores outputs as the workload's reference, in the source
// tree the benchmark is run from.
func writeReference(workload string, outputs map[string]string) error {
	data, err := json.MarshalIndent(outputs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("perfbench", "reference", workload+".json"), append(data, '\n'), 0o644)
}
