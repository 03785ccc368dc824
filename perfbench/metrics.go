package main

// metric describes one reported number.
type metric struct {
	name, unit, better string
}

// endToEnd are the metrics a --trace 0 run reports for every workload:
// host time and memory as the user of the simulator sees them.
var endToEnd = []metric{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// The remaining end-to-end metrics apply to some workloads only, or read 0
// when all is well, so they are printed in the run's summary lines but not
// in its result object, which carries the same metrics for every workload.
var (
	accessesPerS = metric{"accesses_per_s", "1/s", "higher"}
	statesPerS   = metric{"states_per_s", "1/s", "higher"}
	speedupCI95  = metric{"speedup_ci95", "speedup", "lower"}
	errorRate    = metric{"error_rate", "frac", "lower"}
	summaryOnly  = []metric{accessesPerS, statesPerS, speedupCI95, errorRate}
)

// perLayer are the metrics a --trace 1 run reports. Every workload reports
// all of them; a metric whose layer the workload does not run reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	var out []metric
	for _, l := range layers {
		out = append(out, metric{l + ".self_s", "s", "lower"}, metric{l + ".self_share", "frac", "lower"})
	}
	out = append(out,
		metric{"workload.open_s", "s", "lower"},
		metric{"machine.new_s", "s", "lower"},
		metric{"machine.run_s", "s", "lower"},
		metric{"experiments.run_s", "s", "lower"},
		metric{"mc.verify_s", "s", "lower"},
		metric{"sweep.sim_p50_s", "s", "lower"},
		metric{"sweep.sim_max_s", "s", "lower"},
		metric{"sweep.tail_s", "s", "lower"},
		metric{"sweep.busy_frac", "frac", "higher"},
		metric{"runtime.allocs_per_kaccess", "allocs/kaccess", "lower"},
		metric{"runtime.alloc_mb", "MB", "lower"},
		metric{"runtime.gc_cycles", "count", "lower"},
	)
	for _, d := range pairDesigns {
		for _, c := range counterNames {
			out = append(out, metric{c + "." + d.String(), counterUnits[c], counterBetter(c)})
		}
	}
	return append(out,
		metric{"sample.windows", "count", "higher"},
		metric{"sample.detailed_frac", "frac", "lower"},
		metric{"mc.states", "count", "higher"},
		metric{"mc.transitions", "count", "higher"},
		metric{"trace_overhead_frac", "frac", "lower"},
	)
}

var counterUnits = map[string]string{
	"cache.llc_accesses": "count", "cache.llc_fills": "count", "cache.llc_invalidations": "count",
	"cache.llc_miss_rate": "frac", "dramcache.hit_rate": "frac", "dramcache.predictor_accuracy": "frac",
	"dramcache.channel_wait_cycles": "cycles", "dram.accesses": "count", "dram.channel_busy_frac": "frac",
	"dram.channel_wait_cycles": "cycles", "interconnect.messages": "count", "interconnect.bytes": "B",
	"interconnect.link_busy_frac": "frac", "interconnect.link_wait_cycles": "cycles", "sim.transfers": "count",
	"coherence.dir_recalls": "count", "coherence.broadcasts": "count", "coherence.remote_dram_probes": "count",
	"tlb.reclassifications": "count", "tlb.shared_pages": "count", "numa.remote_mem_frac": "frac",
	"numa.placements": "count", "cpu.ipc": "instr/cycle", "cpu.load_cycle_frac": "frac",
	"cpu.store_stall_cycles": "cycles", "machine.sim_cycles": "cycles", "machine.accesses": "count",
}

// counterBetter gives the direction in which a simulated counter reads
// better for the modelled design; most count work or waiting.
func counterBetter(name string) string {
	switch name {
	case "dramcache.hit_rate", "dramcache.predictor_accuracy", "cpu.ipc", "machine.accesses":
		return "higher"
	}
	return "lower"
}
