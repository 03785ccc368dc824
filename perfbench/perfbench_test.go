package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when the
// tiny passes below spawn child processes.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(runChild(spec))
	}
	os.Exit(m.Run())
}

func TestFoldStack(t *testing.T) {
	cases := []struct {
		name   string
		frames []string // innermost first
		want   string
	}{
		{"runtime map lookup under numa counts as numa", []string{
			"runtime.mapaccess2_fast64",
			"c3d/internal/numa.(*PageTable).HomeOfBlock",
			"c3d/internal/machine.(*Machine).Read",
			"main.main",
		}, "numa"},
		{"GC-only stack counts as runtime", []string{
			"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack",
		}, "runtime"},
		{"inlined callee is the innermost frame", []string{
			"c3d/internal/cache.(*Cache).set",
			"c3d/internal/cache.(*Cache).Invalidate",
			"c3d/internal/machine.(*Machine).fillLLC",
		}, "cache"},
		{"generic instantiation with slashes in brackets", []string{
			"c3d/internal/sweep.Run[go.shape.struct { Design c3d/internal/machine.Design }].func1",
		}, "sweep"},
		{"benchmark frames are not the program's", []string{
			"main.cannealTrace", "c3d/internal/sim.(*Resource).Acquire",
		}, "sim"},
		{"module package outside the layer list", []string{
			"c3d/internal/addr.Addr.Block", "c3d/internal/tlb.(*TLB).Lookup",
		}, "other"},
		{"the SDK counts as other", []string{"c3d/pkg/c3d.(*Session).Simulate"}, "other"},
		{"empty stack", nil, "runtime"},
	}
	for _, c := range cases {
		if got := foldStack(c.frames); got != c.want {
			t.Errorf("%s: foldStack = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestFoldProfileCoversEveryLayer(t *testing.T) {
	got := foldProfile([]sample{
		{frames: []string{"runtime.memmove", "c3d/internal/trace.(*Reader).Next"}, nanos: 3e7},
		{frames: []string{"runtime.futex"}, nanos: 1e7},
	})
	if len(got) != len(layers) {
		t.Fatalf("fold reports %d layers, want %d", len(got), len(layers))
	}
	if got["trace"] != 0.03 || got["runtime"] != 0.01 || got["cache"] != 0 {
		t.Errorf("fold = %v", got)
	}
}

func TestChecker(t *testing.T) {
	c := checker{ref: map[string]string{"c3d": "A"}, seen: map[string]string{}}
	c.check([]op{{Name: "c3d", Weight: 1, Output: "A"}})
	c.check([]op{{Name: "c3d", Weight: 1, Output: "B"}})                // differs from the reference
	c.check([]op{{Name: "baseline", Weight: 1, Output: "A"}})           // no reference for the op
	c.check([]op{{Name: "fig6", Weight: 45, Output: "T", Err: "boom"}}) // failed in the child
	if c.attempted != 48 || c.failed != 47 {
		t.Errorf("attempted %d failed %d, want 48 and 47", c.attempted, c.failed)
	}

	c = checker{seen: map[string]string{}}
	c.check([]op{{Name: "c3d", Weight: 1, Output: "A"}})
	c.check([]op{{Name: "c3d", Weight: 1, Output: "A"}})
	c.check([]op{{Name: "c3d", Weight: 1, Output: "B"}}) // a later run disagrees
	if c.attempted != 3 || c.failed != 1 {
		t.Errorf("attempted %d failed %d, want 3 and 1", c.attempted, c.failed)
	}
}

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMetricNames checks every name the benchmark emits and that
// BENCHMARK.json declares exactly the metrics the code reports.
func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	seen := map[string]bool{}
	for _, m := range append(append(append([]metric(nil), endToEnd...), summaryOnly...), perLayer...) {
		if !valid.MatchString(m.name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.name)
		}
		if seen[m.name] {
			t.Errorf("metric %q declared twice", m.name)
		}
		seen[m.name] = true
	}
	b := readBenchmarkFile(t)
	render := func(ms []metric) string {
		var s []string
		for _, m := range ms {
			s = append(s, m.name+" "+m.unit+" "+m.better)
		}
		return strings.Join(s, "\n")
	}
	fromFile := func(ms []struct{ Name, Unit, Better string }) string {
		var s []string
		for _, m := range ms {
			s = append(s, m.Name+" "+m.Unit+" "+m.Better)
		}
		return strings.Join(s, "\n")
	}
	if got, want := fromFile(b.EndToEnd), render(endToEnd); got != want {
		t.Errorf("BENCHMARK.json end_to_end:\n%s\nwant:\n%s", got, want)
	}
	if got, want := fromFile(b.PerLayer), render(perLayer); got != want {
		t.Errorf("BENCHMARK.json per_layer:\n%s\nwant:\n%s", got, want)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, want %s", got, want)
	}
}

// TestTinyPass runs every workload at its tiny size through the command
// line, untraced and traced, and checks the result line carries exactly
// the declared metrics.
func TestTinyPass(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns simulations")
	}
	b := readBenchmarkFile(t)
	// Per-layer metrics each workload must measure (others may read 0).
	measured := map[string][]string{
		"canneal-pair": {"workload.open_s", "machine.new_s", "machine.run_s", "cache.llc_fills.c3d",
			"sim.transfers.baseline", "coherence.broadcasts.c3d", "runtime.allocs_per_kaccess"},
		"fig6-sampled":  {"experiments.run_s", "sweep.sim_p50_s", "sweep.busy_frac", "sample.windows", "sample.detailed_frac"},
		"modelcheck-3s": {"mc.verify_s", "mc.states", "mc.transitions"},
	}
	for _, w := range workloadNames() {
		for _, trace := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/trace=%d", w, trace), func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"--workload", w, "--seed", "5", "--seconds", "0", "--trace", fmt.Sprint(trace), "--tiny"}
				if code := runParent(args, &out); code != 0 {
					t.Fatalf("exit code %d; output:\n%s", code, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				declared := b.EndToEnd
				if trace == 1 {
					declared = b.PerLayer
				}
				if len(res.Metrics) != len(declared) {
					t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(declared))
				}
				for _, m := range declared {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					case trace == 0 && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				if trace == 1 {
					for _, name := range measured[w] {
						if res.Metrics[name].Value <= 0 {
							t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
						}
					}
				}
				if trace == 0 && !strings.Contains(out.String(), "error_rate") {
					t.Errorf("summary lacks error_rate:\n%s", out.String())
				}
			})
		}
	}
}
