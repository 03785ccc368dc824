package machine

import (
	"fmt"
	"math/bits"

	"c3d/internal/addr"
	"c3d/internal/cache"
	"c3d/internal/coherence"
	"c3d/internal/core"
	"c3d/internal/cpu"
	"c3d/internal/dram"
	"c3d/internal/dramcache"
	"c3d/internal/sim"
	"c3d/internal/tlb"
)

// Socket is one NUMA socket: its cores with private L1s, the shared LLC, the
// optional DRAM cache, the memory controller owning this socket's share of
// physical memory, and this socket's slice of the global directory.
//
// The LLC is inclusive of the L1s, and each LLC line's presence bits record
// which local cores' L1s may hold it (local core i maps to bit i mod
// cache.PresenceBits). Every L1 fill sets its core's bit, in detailed runs
// and in functional warming alike, so a clear bit is exact; L1s evict
// silently, so a set bit only means "may hold". Back-invalidations, probes
// and downgrades therefore visit only the L1s the bits name, and an LLC miss
// proves no L1 on the socket holds the block. Machine.CheckInvariants
// verifies both halves of this contract.
type Socket struct {
	id  int
	cfg Config

	cores []*cpu.Core
	l1s   []*cache.Cache
	tlbs  []*tlb.TLB
	llc   *cache.Cache

	dramCache *dramcache.Cache // nil for the Baseline design
	mem       *dram.Controller

	// Directory slices. The C3D designs use the protocol-aware directory
	// from internal/core; the other designs use the generic structure.
	c3dDir *core.Directory      // C3D, C3DFullDir
	dir    *coherence.Directory // Baseline, Snoopy (as snoop filter), FullDir, SharedDRAM
}

// newSocket builds socket id from the machine configuration; the design spec
// contributes the directory slices.
func newSocket(id int, cfg Config, spec DesignSpec) *Socket {
	s := &Socket{id: id, cfg: cfg}
	for c := 0; c < cfg.CoresPerSocket; c++ {
		coreID := id*cfg.CoresPerSocket + c
		s.cores = append(s.cores, cpu.New(cpu.Config{
			ID:                coreID,
			Socket:            id,
			StoreQueueEntries: cfg.StoreQueueEntries,
		}))
		s.l1s = append(s.l1s, cache.New(cache.Config{
			Name:      fmt.Sprintf("l1.%d", coreID),
			SizeBytes: cfg.ScaledL1Size(),
			Ways:      cfg.L1Ways,
		}))
		s.tlbs = append(s.tlbs, tlb.NewTLB(64))
	}
	s.llc = cache.New(cache.Config{
		Name:      fmt.Sprintf("llc.%d", id),
		SizeBytes: cfg.ScaledLLCSize(),
		Ways:      cfg.LLCWays,
	})
	s.mem = dram.New(dram.Config{
		Name:                fmt.Sprintf("mem.%d", id),
		AccessLatency:       sim.NsToCycles(cfg.MemLatencyNs),
		Channels:            cfg.MemChannels,
		ChannelBandwidthGBs: cfg.MemBandwidthGBs,
	})
	if cfg.InfiniteMemBW {
		s.mem.SetInfiniteBandwidth()
	}
	if cfg.Design.HasDRAMCache() {
		dcCfg := dramcache.Config{
			Name:                fmt.Sprintf("dram$.%d", id),
			SizeBytes:           cfg.ScaledDRAMCacheSize(),
			AccessLatency:       sim.NsToCycles(cfg.DRAMCacheLatencyNs),
			Channels:            cfg.DRAMCacheChannels,
			ChannelBandwidthGBs: cfg.DRAMCacheBandwidthGBs,
			PredictorEntries:    cfg.PredictorEntries,
			Policy:              cfg.dramCachePolicy(),
		}
		if cfg.InfiniteDRAMCacheB {
			dcCfg.ChannelBandwidthGBs = 0
		}
		s.dramCache = dramcache.New(dcCfg)
	}
	dirs := spec.NewDirectories(id, cfg)
	s.c3dDir, s.dir = dirs.C3D, dirs.Generic
	return s
}

// ID returns the socket's index.
func (s *Socket) ID() int { return s.id }

// Cores returns the socket's cores.
func (s *Socket) Cores() []*cpu.Core { return s.cores }

// LLC returns the socket's last-level cache.
func (s *Socket) LLC() *cache.Cache { return s.llc }

// DRAMCache returns the socket's DRAM cache (nil for the baseline design).
func (s *Socket) DRAMCache() *dramcache.Cache { return s.dramCache }

// Memory returns the socket's memory controller.
func (s *Socket) Memory() *dram.Controller { return s.mem }

// local returns the socket-local index of the given global core id (which
// must belong to this socket).
func (s *Socket) local(coreID int) int {
	local := coreID - s.id*s.cfg.CoresPerSocket
	if local < 0 || local >= len(s.l1s) {
		panic(fmt.Sprintf("machine: core %d does not belong to socket %d", coreID, s.id))
	}
	return local
}

// l1Of returns the L1 of the given global core id.
func (s *Socket) l1Of(coreID int) *cache.Cache { return s.l1s[s.local(coreID)] }

// presenceOf returns the LLC presence bit of the given global core id.
func (s *Socket) presenceOf(coreID int) cache.Presence { return cache.PresenceOf(s.local(coreID)) }

// tlbOf returns the TLB of the given global core id.
func (s *Socket) tlbOf(coreID int) *tlb.TLB {
	local := coreID - s.id*s.cfg.CoresPerSocket
	return s.tlbs[local]
}

// invalidateL1s removes the block from every L1 the presence set names,
// except the L1 with local index skip (-1 skips none). Local core i maps to
// bit i mod cache.PresenceBits, so each set bit covers every core aliased
// onto it.
func (s *Socket) invalidateL1s(p cache.Presence, skip int, b addr.Block) {
	for ; p != 0; p &= p - 1 {
		for i := bits.TrailingZeros8(uint8(p)); i < len(s.l1s); i += cache.PresenceBits {
			if i != skip {
				s.l1s[i].Invalidate(b)
			}
		}
	}
}

// probeOnChip checks whether the block is present in the socket's on-chip
// hierarchy (LLC or any L1) without disturbing replacement state. It returns
// the "strongest" state found and whether any copy is dirty. The LLC is
// inclusive of the L1s, so an LLC miss ends the probe and a hit probes only
// the L1s its presence bits name.
func (s *Socket) probeOnChip(b addr.Block) (state cache.State, dirty, present bool) {
	line, ok := s.llc.Probe(b)
	if !ok {
		return 0, false, false
	}
	state, dirty = line.State, line.Dirty
	for i, l1 := range s.l1s {
		if !line.Presence.Has(i) {
			continue
		}
		if l1Line, ok := l1.Probe(b); ok && l1Line.State > state {
			state = l1Line.State
		}
	}
	return state, dirty, true
}

// invalidateOnChip removes the block from the LLC and every L1 of the socket
// its presence bits name. It returns the former LLC metadata (the L1s are
// write-through to the LLC, so the LLC's dirty bit is authoritative).
func (s *Socket) invalidateOnChip(b addr.Block) cache.Victim {
	v := s.llc.Invalidate(b)
	if v.Valid {
		s.invalidateL1s(v.Presence, -1, b)
	}
	return v
}

// invalidateL1sExcept removes the block from every L1 on the socket except
// the writer's, which is about to install (or already holds) the block in
// Modified state; the LLC line's presence bits are left naming the writer
// alone. An LLC miss means no L1 holds the block.
func (s *Socket) invalidateL1sExcept(coreID int, b addr.Block) {
	line, ok := s.llc.Probe(b)
	if !ok {
		return
	}
	local := s.local(coreID)
	s.invalidateL1s(line.Presence, local, b)
	line.Presence = cache.PresenceOf(local)
}

// downgradeOnChip transitions the block to Shared in the LLC and every L1
// holding it, clearing dirty bits (the caller is responsible for writing the
// data back to memory). It reports whether the block was present on-chip.
func (s *Socket) downgradeOnChip(b addr.Block) bool {
	line, ok := s.llc.Probe(b)
	if !ok {
		return false
	}
	line.State, line.Dirty = coherence.LineShared, false
	for i, l1 := range s.l1s {
		if line.Presence.Has(i) && l1.SetState(b, coherence.LineShared) {
			l1.CleanBlock(b)
		}
	}
	return true
}

// checkInclusion reports the first L1 line whose block is missing from the
// LLC or whose LLC line's presence bits do not name that L1.
func (s *Socket) checkInclusion() error {
	var err error
	for i, l1 := range s.l1s {
		coreID := s.id*s.cfg.CoresPerSocket + i
		l1.ForEach(func(l cache.Line) {
			if err != nil {
				return
			}
			switch line, ok := s.llc.Probe(l.Block); {
			case !ok:
				err = fmt.Errorf("machine: core %d L1 holds block %#x absent from socket %d's LLC", coreID, uint64(l.Block), s.id)
			case !line.Presence.Has(i):
				err = fmt.Errorf("machine: core %d L1 holds block %#x but socket %d's LLC presence bits %08b omit it",
					coreID, uint64(l.Block), s.id, uint8(line.Presence))
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// reset returns every component of the socket to its just-constructed state:
// caches and directories emptied, TLBs flushed, cores rewound, channel
// occupancy cleared. Used by Machine.Reset to reuse a machine across runs.
func (s *Socket) reset() {
	for _, c := range s.cores {
		c.ResetTiming()
	}
	for _, l1 := range s.l1s {
		l1.Reset()
	}
	for _, t := range s.tlbs {
		t.Reset()
	}
	s.llc.Reset()
	s.mem.Reset()
	if s.dramCache != nil {
		s.dramCache.Reset()
	}
	if s.c3dDir != nil {
		s.c3dDir.Reset()
	}
	if s.dir != nil {
		s.dir.Reset()
	}
}

// resetStats clears every per-socket counter (cache, memory, directory)
// without evicting contents. Used at the warm-up boundary.
func (s *Socket) resetStats() {
	for _, l1 := range s.l1s {
		l1.ResetStats()
	}
	for _, t := range s.tlbs {
		t.ResetStats()
	}
	s.llc.ResetStats()
	s.mem.ResetStats()
	if s.dramCache != nil {
		s.dramCache.ResetStats()
	}
	if s.c3dDir != nil {
		s.c3dDir.ResetStats()
	}
	if s.dir != nil {
		s.dir.ResetStats()
	}
}
