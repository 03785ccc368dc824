// Quickstart: build a 4-socket NUMA machine, run one workload under the
// baseline (no DRAM caches) and under C3D, and report the speedup and traffic
// reduction — the headline result of the paper in a dozen lines of API use.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"c3d/pkg/c3d"
)

func main() {
	// A reduced-size run so the example finishes in seconds; drop the
	// overrides for the paper-scale configuration.
	sess, err := c3d.New(
		c3d.WithThreads(8),
		c3d.WithScale(512),
		c3d.WithAccesses(10_000),
		c3d.WithCoresPerSocket(2),
	)
	if err != nil {
		log.Fatal(err)
	}
	const workload = "streamcluster"

	run := func(design c3d.Design) *c3d.SimulateResult {
		res, err := sess.Simulate(context.Background(), workload, c3d.WithDesign(design))
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	baseline := run(c3d.Baseline)
	c3dRes := run(c3d.C3D)

	fmt.Printf("workload            %s (%d threads)\n", workload, c3dRes.EffectiveThreads)
	fmt.Printf("baseline            %s\n", baseline.RunResult)
	fmt.Printf("c3d                 %s\n", c3dRes.RunResult)
	fmt.Printf("speedup             %.2fx\n", c3dRes.SpeedupOver(baseline.RunResult))
	fmt.Printf("remote reads kept   %.0f%%\n", c3dRes.NormalizedRemoteMemReads(baseline.RunResult)*100)
	fmt.Printf("inter-socket bytes  %.0f%% of baseline\n", c3dRes.NormalizedInterSocketTraffic(baseline.RunResult)*100)
}
