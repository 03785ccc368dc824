// design-space walks the §II-C design question — should multi-socket DRAM
// caches be shared (memory-side) or private? — and then the §III/§IV
// coherence question, by running one workload under every design and
// printing the comparison the paper's Figs. 6, 8 and 9 aggregate.
//
//	go run ./examples/design-space [workload]
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"c3d/pkg/c3d"
)

func main() {
	name := "facesim"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	sess, err := c3d.New(
		c3d.WithThreads(8),
		c3d.WithScale(512),
		c3d.WithAccesses(10_000),
		c3d.WithCoresPerSocket(2),
	)
	if err != nil {
		log.Fatal(err)
	}

	designs := []c3d.Design{
		c3d.Baseline, c3d.SharedDRAM, c3d.Snoopy,
		c3d.FullDir, c3d.C3D, c3d.C3DFullDir,
	}
	results := make(map[c3d.Design]c3d.RunResult, len(designs))
	for _, d := range designs {
		res, err := sess.Simulate(context.Background(), name, c3d.WithDesign(d))
		if err != nil {
			log.Fatal(err)
		}
		results[d] = res.RunResult
	}

	base := results[c3d.Baseline]
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "design\tspeedup\tDRAM$ hit\tremote reads\tinter-socket bytes\tremote DRAM$ probes\tbroadcasts\n")
	for _, d := range designs {
		r := results[d]
		fmt.Fprintf(w, "%v\t%.3f\t%.1f%%\t%.2fx\t%.2fx\t%d\t%d\n",
			d, r.SpeedupOver(base), r.DRAMCacheHitRate*100,
			r.NormalizedRemoteMemReads(base), r.NormalizedInterSocketTraffic(base),
			r.Counters.RemoteDRAMProbes, r.Counters.Broadcasts)
	}
	w.Flush()

	fmt.Println("\nreading the table:")
	fmt.Println(" - shared caches cut memory accesses but not off-socket traffic (§II-C);")
	fmt.Println(" - snoopy and full-dir probe remote DRAM caches on the critical path (§III);")
	fmt.Println(" - c3d keeps its caches clean, so reads never touch a remote DRAM cache,")
	fmt.Println("   and its only cost versus the idealised c3d-full-dir is broadcast traffic (§IV).")
}
