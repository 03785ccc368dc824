package c3d

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"testing"

	"c3d/internal/machine"
	"c3d/internal/numa"
)

type sparseGoldenRun struct {
	Name string
	Cfg  machine.Config
}

// sparseGoldenRuns are the machine configurations the sparse-address golden
// pins: the baseline, C3D, and C3D with the §IV-D broadcast filter (which
// consults the page classifier on every write miss), under all three
// placement policies, then every other registered design under interleaved
// placement (which spreads homes over all sockets, so coherence crosses the
// fabric), and the shared design once more under FT2 (which homes the whole
// trace at one socket, so that socket's directory slice overflows and its
// recalls write dirty data back past the memory-side DRAM cache). Each runs
// at the default scale and at a scale and directory provisioning small
// enough to force LLC evictions and directory recalls.
func sparseGoldenRuns() []sparseGoldenRun {
	type goldenDesign struct {
		name   string
		design machine.Design
		filter bool
		policy numa.Policy
	}
	first := []goldenDesign{
		{"baseline", machine.Baseline, false, numa.FirstTouch2},
		{"c3d", machine.C3D, false, numa.Interleave},
		{"c3d+filter", machine.C3D, true, numa.FirstTouch1},
	}
	var rest []goldenDesign
	for _, d := range machine.Designs() {
		if d != machine.Baseline && d != machine.C3D {
			rest = append(rest, goldenDesign{string(d), d, false, numa.Interleave})
		}
	}
	rest = append(rest, goldenDesign{"shared+FT2", machine.SharedDRAM, false, numa.FirstTouch2})
	var runs []sparseGoldenRun
	for _, designs := range [][]goldenDesign{first, rest} {
		for _, scale := range []int{64, 4096} {
			for _, d := range designs {
				cfg := machine.DefaultConfig(4, d.design)
				cfg.Scale = scale
				cfg.MemPolicy = d.policy
				cfg.EnableBroadcastFilter = d.filter
				if scale > 64 {
					cfg.DirProvisioning = 0.25
				}
				runs = append(runs, sparseGoldenRun{d.name + "@" + strconv.Itoa(scale), cfg})
			}
		}
	}
	return runs
}

// sparseGoldenJSON simulates testdata/sparse-addr.txt — a text trace whose
// pages sit near 0x1000, near 0x7fff_ffff_f000 and at the very top of the
// 64-bit address space — under every sparseGoldenRuns configuration and
// returns the indented RunResult JSON.
func sparseGoldenJSON(t *testing.T) []byte {
	t.Helper()
	src, err := OpenTextTrace("testdata/sparse-addr.txt")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string
		Result RunResult
	}
	var out []entry
	for _, r := range sparseGoldenRuns() {
		m, err := newMachine(r.Cfg)
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		res, err := m.RunSource(t.Context(), src, machine.DefaultRunOptions())
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		out = append(out, entry{r.Name, res})
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestSparseAddressTraceMatchesGolden pins the simulated results of a trace
// whose addresses span the whole 64-bit space: nothing in the page table,
// the classifier, the TLBs or the directories may assume a dense address
// space. The golden was captured before those structures moved from hash
// maps to page-indexed tables.
//
// If a deliberate simulator change moves these numbers, regenerate with:
//
//	C3D_UPDATE_SPARSE_GOLDEN=1 go test ./pkg/c3d -run TestSparseAddressTraceMatchesGolden
//
// and say so in the commit message.
func TestSparseAddressTraceMatchesGolden(t *testing.T) {
	const golden = "testdata/sparse-addr-golden.json"
	got := sparseGoldenJSON(t)
	if os.Getenv("C3D_UPDATE_SPARSE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("sparse-address results drifted from %s:\ngot:  %s", golden, got)
	}
}
