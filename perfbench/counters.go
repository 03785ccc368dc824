package main

import (
	"c3d/internal/dramcache"
	"c3d/internal/machine"
	"c3d/internal/sim"
)

// counterNames are the modelled-component counters read after each traced
// canneal-pair simulation. They are simulated, exact, and must not move
// under a change that only speeds the simulator up.
var counterNames = []string{
	"cache.llc_accesses", "cache.llc_fills", "cache.llc_invalidations", "cache.llc_miss_rate",
	"dramcache.hit_rate", "dramcache.predictor_accuracy", "dramcache.channel_wait_cycles",
	"dram.accesses", "dram.channel_busy_frac", "dram.channel_wait_cycles",
	"interconnect.messages", "interconnect.bytes", "interconnect.link_busy_frac", "interconnect.link_wait_cycles",
	"sim.transfers",
	"coherence.dir_recalls", "coherence.broadcasts", "coherence.remote_dram_probes",
	"tlb.reclassifications", "tlb.shared_pages",
	"numa.remote_mem_frac", "numa.placements",
	"cpu.ipc", "cpu.load_cycle_frac", "cpu.store_stall_cycles",
	"machine.sim_cycles", "machine.accesses",
}

// modelCounters reads the counters through the components' public Stats,
// LinkStats and ChannelStats after a run. Statistics cover the measured
// region: the runner resets them after the 25% warm-up.
func modelCounters(m *machine.Machine, res machine.RunResult) map[string]float64 {
	var (
		llcHits, llcMisses, llcFills, llcInvals uint64
		dramAccesses                            uint64
		pred                                    dramcache.PredictorStats
		dramCh, dcCh                            []sim.ResourceStats
	)
	for _, s := range m.Sockets() {
		st := s.LLC().Stats()
		llcHits += st.Hits
		llcMisses += st.Misses
		llcFills += st.Fills
		llcInvals += st.Invalidate
		dramAccesses += s.Memory().Stats().Accesses()
		dramCh = append(dramCh, s.Memory().ChannelStats()...)
		if dc := s.DRAMCache(); dc != nil {
			p := dc.Stats().Predictor
			pred.Predictions += p.Predictions
			pred.FalseHits += p.FalseHits
			pred.FalseMisses += p.FalseMisses
			dcCh = append(dcCh, dc.ChannelStats()...)
		}
	}
	links := m.Fabric().LinkStats()
	fabric := m.Fabric().Stats()
	cls := m.Classifier().Stats()

	var loadCycles, cycles, storeStalls uint64
	for _, c := range res.PerCore {
		loadCycles += c.LoadCycles
		cycles += c.Cycles
		storeStalls += c.StoreStallCycles
	}
	transfers := uint64(0)
	for _, group := range [][]sim.ResourceStats{links, dramCh, dcCh} {
		for _, r := range group {
			transfers += r.Transfers
		}
	}
	return map[string]float64{
		"cache.llc_accesses":            float64(llcHits + llcMisses),
		"cache.llc_fills":               float64(llcFills),
		"cache.llc_invalidations":       float64(llcInvals),
		"cache.llc_miss_rate":           ratio(llcMisses, llcHits+llcMisses),
		"dramcache.hit_rate":            res.DRAMCacheHitRate,
		"dramcache.predictor_accuracy":  pred.Accuracy(),
		"dramcache.channel_wait_cycles": float64(waitCycles(dcCh)),
		"dram.accesses":                 float64(dramAccesses),
		"dram.channel_busy_frac":        busyFrac(dramCh, res.Cycles),
		"dram.channel_wait_cycles":      float64(waitCycles(dramCh)),
		"interconnect.messages":         float64(fabric.Messages),
		"interconnect.bytes":            float64(fabric.TotalBytes),
		"interconnect.link_busy_frac":   busyFrac(links, res.Cycles),
		"interconnect.link_wait_cycles": float64(waitCycles(links)),
		"sim.transfers":                 float64(transfers),
		"coherence.dir_recalls":         float64(res.Counters.DirRecalls),
		"coherence.broadcasts":          float64(res.Counters.Broadcasts),
		"coherence.remote_dram_probes":  float64(res.Counters.RemoteDRAMProbes),
		"tlb.reclassifications":         float64(cls.Reclassifications),
		"tlb.shared_pages":              float64(cls.SharedPages),
		"numa.remote_mem_frac":          res.Counters.RemoteMemFraction(),
		"numa.placements":               float64(m.PageTable().Stats().Placements),
		"cpu.ipc":                       res.IPC(),
		"cpu.load_cycle_frac":           ratio(loadCycles, cycles),
		"cpu.store_stall_cycles":        float64(storeStalls),
		"machine.sim_cycles":            float64(res.Cycles),
		"machine.accesses":              float64(res.Counters.Loads + res.Counters.Stores),
	}
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func waitCycles(rs []sim.ResourceStats) uint64 {
	w := uint64(0)
	for _, r := range rs {
		w += r.WaitCycles
	}
	return w
}

// busyFrac is the mean occupancy of the resources over the measured region.
func busyFrac(rs []sim.ResourceStats, cycles uint64) float64 {
	busy := uint64(0)
	for _, r := range rs {
		busy += r.BusyCycles
	}
	return ratio(busy, uint64(len(rs))*cycles)
}
