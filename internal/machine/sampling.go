package machine

import (
	"context"
	"fmt"
	"math"

	"c3d/internal/addr"
	"c3d/internal/cache"
	"c3d/internal/coherence"
	"c3d/internal/dramcache"
	"c3d/internal/interconnect"
	"c3d/internal/sample"
	"c3d/internal/sim"
	"c3d/internal/trace"
)

// SamplingResult describes how a sampled run arrived at its numbers: the
// schedule it used, how much of the stream was simulated in detail, and the
// confidence half-widths of every derived metric. It is attached to RunResult
// so error bars travel with the numbers into every JSON output.
type SamplingResult struct {
	// Spec is the canonical sampling spec the run used.
	Spec string
	// Windows is the number of measured windows the estimator saw.
	Windows int
	// SampledAccesses is the number of memory accesses inside measured
	// windows — the accesses the reported metrics are computed from.
	SampledAccesses uint64
	// DetailedAccesses is the number of accesses simulated in full detail
	// (warm-up phases plus measured windows).
	DetailedAccesses uint64
	// TotalAccesses is the full parallel-region access count the sampled
	// totals are extrapolated to.
	TotalAccesses uint64
	// Estimates holds the point estimate and 95% confidence half-width of
	// each derived metric.
	Estimates sample.Estimates
}

// ffPageMemoSize is the per-core page-memo table size (a power of two).
const ffPageMemoSize = 256

// ffCore is the per-core state of the functional-warming fast path: the
// socket, L1 and LLC presence bit resolved once per run instead of per
// record, plus two memos. Back-invalidation sweeps need no private filter:
// warming records every L1 fill in the LLC line's presence bits exactly as
// the detailed path does, so both paths visit only the L1s those bits name.
//
// The page memo records pages this core has already pushed through the
// classifier. Skipping repeats is exact because the classifier's transitions
// are absorbing for a pinned thread: after this core's first Access the page
// is either private-to-this-core or shared, and in both states every later
// Access by this core mutates nothing (private→shared transitions are
// triggered by the *other* core's first touch, which the memo never skips).
// The memo therefore survives stretches and detailed phases alike. The TLB
// is not warmed at all: its contents are miss-statistics-only (they never
// feed timing, and no sampled estimate reports them), so fast-forward
// traffic through it would be pure cost.
//
// The block memo is exact for the cache hierarchy: after any touch of block
// b, b is at the MRU position of this core's L1, so an immediately repeated
// read would only renumber (not reorder) the set's LRU sequence, and an
// immediately repeated write after a write finds the line Modified with the
// LLC copy already dirty. Cores fast-forward one at a time, so no other
// core's invalidations can interleave with the memo's lifetime; it resets at
// every stretch because detailed phases reorder what it summarises.
type ffCore struct {
	sock *Socket
	l1   *cache.Cache
	bit  cache.Presence   // this core's bit in its socket's LLC presence sets
	dc   *dramcache.Cache // the socket's private DRAM cache; nil for the other designs
	// pageMemo holds page+1 (so the zero value misses) in a direct-mapped
	// table; collisions just repeat a harmless classifier no-op.
	pageMemo [ffPageMemoSize]uint64
	// lastBlock is the most recently touched block; lastBlockMod records
	// whether this core is known to hold it Modified (set by the write path).
	lastBlock    addr.Block
	lastBlockMod bool
	hasLastB     bool
}

// touch is the functional-warming path used during fast-forward stretches: it
// updates the cheap architectural state a detailed phase depends on — page
// classifier, L1/LLC tags and the DRAM caches' contents — without
// producing any coherence or fabric events and without advancing any counter
// that reaches the measured results. Blocks are installed clean/shared and victims are dropped
// silently; the coherence engines tolerate the resulting stale directory
// knowledge (an untracked block is the designed broadcast/memory path, and a
// tracked-but-evicted block downgrades to a no-op).
func (m *Machine) touch(ff *ffCore, coreID int, rec trace.Record) {
	b := addr.BlockOf(rec.Addr)
	// Same block as the previous record: a repeated read is a no-op (the
	// line is already MRU everywhere it lives) and a repeated write to an
	// already-Modified line likewise; see the ffCore memo-exactness note.
	if ff.hasLastB && b == ff.lastBlock {
		if rec.Kind != trace.Write {
			return
		}
		if ff.lastBlockMod {
			return
		}
		m.touchWrite(ff, coreID, b)
		ff.lastBlockMod = true
		return
	}
	page := addr.PageOf(rec.Addr)
	if slot := &ff.pageMemo[uint64(page)&(ffPageMemoSize-1)]; *slot != uint64(page)+1 {
		// Threads are pinned in this simulator, so the thread id equals the
		// core id and migrations never occur.
		m.classifier.Access(page, coreID, coreID)
		*slot = uint64(page) + 1
	}
	ff.lastBlock = b
	ff.hasLastB = true
	if rec.Kind == trace.Write {
		ff.lastBlockMod = true
		m.touchWrite(ff, coreID, b)
		return
	}
	ff.lastBlockMod = false
	// Touch installs on miss, so an L1 hit is the whole fast path; an L1 miss
	// leaves b installed there and only the LLC remains, which records this
	// core in b's presence bits. L1 victims are dropped silently (the L1s
	// are write-through into the inclusive LLC).
	if _, hit := ff.l1.Touch(b, coherence.LineShared, 0); hit {
		return
	}
	if victim, hit := ff.sock.llc.Touch(b, coherence.LineShared, ff.bit); !hit {
		if victim.Valid {
			// Keep the hierarchy inclusive; the write-back (if the victim
			// was dirty) is only a statistic, and fast-forward produces
			// none. The sweep visits only the L1s the victim's presence bits
			// name.
			ff.sock.invalidateL1s(victim.Presence, -1, victim.Block)
			// A private DRAM cache is an LLC victim cache, so fast-forwarded
			// evictions must land there too — a cold DRAM cache is the
			// single largest warming bias (every measured-window miss would
			// pay the memory path a full run's warm giga-cache absorbs).
			if ff.dc != nil {
				ff.dc.Warm(victim.Block, victim.State, victim.Dirty)
			}
		}
		if m.memSide {
			m.warmHomeDRAMCaches(b, victim)
		}
	}
}

// warmHomeDRAMCaches warms memory-side DRAM caches for a fast-forwarded LLC
// miss on block b that displaced victim, where the detailed engine fills
// them (homeRead, homeWrite): b passes through its home's cache on the way
// from memory, and a dirty victim is written back into its own home's cache.
func (m *Machine) warmHomeDRAMCaches(b addr.Block, victim cache.Victim) {
	m.home(b).dramCache.Warm(b, coherence.LineShared, false)
	if victim.Valid && victim.Dirty {
		m.home(victim.Block).dramCache.Warm(victim.Block, coherence.LineShared, true)
	}
}

// touchWrite is the store half of functional warming. Coherence state —
// which socket owns a line — is exactly what a broadcast design's timing
// hangs off, so fast-forwarded stores must not leave stale Shared copies
// behind: the writer's hierarchy takes the line Modified (LLC dirty, as the
// write-through L1s make the LLC dirty bit authoritative) and every other
// copy on the machine is dropped, the same end state the detailed engines
// converge to, produced without any coherence, fabric or statistic events.
func (m *Machine) touchWrite(ff *ffCore, coreID int, b addr.Block) {
	// One scan takes the line Modified in the L1 whether it was held Shared,
	// held Modified or absent. Ownership already exclusive (the common
	// write-hit fast path) means only the LLC dirty bit needs refreshing.
	if prior, hit := ff.l1.TouchState(b, coherence.LineModified); hit {
		if prior == coherence.LineModified {
			if l, ok := ff.sock.llc.Probe(b); ok {
				l.Dirty = true
			}
			return
		}
	}
	// §IV-D's insight applies to warming too: a page still private to this
	// thread has never been touched by any other thread, so no cache on the
	// machine can hold a copy of b and the whole invalidation sweep is
	// provably a no-op.
	if !m.classifier.IsPrivateTo(addr.PageOfBlock(b), coreID) {
		for _, other := range m.sockets {
			if other == ff.sock {
				continue
			}
			// The hierarchy is inclusive, so this costs one LLC probe plus
			// the L1s the LLC line's presence bits name.
			other.invalidateOnChip(b)
			// Detailed write misses invalidate remote private DRAM caches
			// in every such design (snoop invalidation, directory recall or
			// broadcast); leaving stale remote copies would hand the snoopy
			// design free remote hits a real run never sees. The DRAM cache
			// is a victim cache — it can hold lines the LLC no longer does —
			// so it is checked unconditionally (direct-mapped: a one-line
			// scan). A memory-side cache holds memory's copy and is never
			// invalidated; ff.dc is set exactly when the caches are private.
			if ff.dc != nil {
				other.dramCache.WarmInvalidate(b)
			}
		}
		ff.sock.invalidateL1sExcept(coreID, b)
	}
	if ff.dc != nil {
		ff.dc.WarmWrite(b)
	}
	if victim, hit := ff.sock.llc.TouchDirty(b, coherence.LineModified, ff.bit); !hit {
		if victim.Valid {
			ff.sock.invalidateL1s(victim.Presence, -1, victim.Block)
			if ff.dc != nil {
				ff.dc.Warm(victim.Block, victim.State, victim.Dirty)
			}
		}
		if m.memSide {
			m.warmHomeDRAMCaches(b, victim)
		}
	}
}

// sampleSnap is a point-in-time snapshot of every statistic a measured window
// reports, taken at window boundaries so windows are pure deltas.
type sampleSnap struct {
	counters Counters
	latCount uint64
	latTotal uint64
	fabric   interconnect.Stats
	dram     dramcache.Stats
	elided   uint64
	instr    uint64
	makespan sim.Time
}

func (m *Machine) sampleSnapshot(cores []*coreRunner) sampleSnap {
	s := sampleSnap{
		counters: m.Counters(),
		latCount: m.counters.loadLatency.Count(),
		latTotal: m.counters.loadLatency.Total(),
		fabric:   m.fabric.Stats(),
		elided:   m.filter.Elided(),
	}
	for _, sock := range m.sockets {
		if sock.dramCache != nil {
			addDRAMStats(&s.dram, sock.dramCache.Stats())
		}
	}
	for _, cr := range cores {
		s.instr += cr.core.Stats().Instructions
		if now := cr.core.Now(); now > s.makespan {
			s.makespan = now
		}
	}
	return s
}

func addDRAMStats(dst *dramcache.Stats, ds dramcache.Stats) {
	dst.Reads += ds.Reads
	dst.Writes += ds.Writes
	dst.ReadHits += ds.ReadHits
	dst.WriteHits += ds.WriteHits
	dst.Fills += ds.Fills
	dst.Evictions += ds.Evictions
	dst.DirtyEvicts += ds.DirtyEvicts
	dst.Invalidates += ds.Invalidates
}

func subDRAMStats(a, b dramcache.Stats) dramcache.Stats {
	return dramcache.Stats{
		Reads:       a.Reads - b.Reads,
		Writes:      a.Writes - b.Writes,
		ReadHits:    a.ReadHits - b.ReadHits,
		WriteHits:   a.WriteHits - b.WriteHits,
		Fills:       a.Fills - b.Fills,
		Evictions:   a.Evictions - b.Evictions,
		DirtyEvicts: a.DirtyEvicts - b.DirtyEvicts,
		Invalidates: a.Invalidates - b.Invalidates,
	}
}

func subCounters(a, b Counters) Counters {
	return Counters{
		Loads:             a.Loads - b.Loads,
		Stores:            a.Stores - b.Stores,
		LLCAccesses:       a.LLCAccesses - b.LLCAccesses,
		LLCMisses:         a.LLCMisses - b.LLCMisses,
		RemoteLLCMisses:   a.RemoteLLCMisses - b.RemoteLLCMisses,
		MemReads:          a.MemReads - b.MemReads,
		MemWrites:         a.MemWrites - b.MemWrites,
		RemoteMemReads:    a.RemoteMemReads - b.RemoteMemReads,
		RemoteMemWrites:   a.RemoteMemWrites - b.RemoteMemWrites,
		Broadcasts:        a.Broadcasts - b.Broadcasts,
		BroadcastsAvoided: a.BroadcastsAvoided - b.BroadcastsAvoided,
		DirRecalls:        a.DirRecalls - b.DirRecalls,
		RemoteDRAMProbes:  a.RemoteDRAMProbes - b.RemoteDRAMProbes,
	}
}

// measAccum accumulates the measured-window deltas that are later
// extrapolated to full-stream totals.
type measAccum struct {
	counters Counters
	latCount uint64
	latTotal uint64
	fabric   interconnect.Stats
	dram     dramcache.Stats
	elided   uint64
	instr    uint64
	cycles   uint64
}

func (a *measAccum) add(s0, s1 sampleSnap) {
	d := subCounters(s1.counters, s0.counters)
	a.counters = addCounters(a.counters, d)
	a.latCount += s1.latCount - s0.latCount
	a.latTotal += s1.latTotal - s0.latTotal
	a.fabric.Messages += s1.fabric.Messages - s0.fabric.Messages
	a.fabric.ControlMsgs += s1.fabric.ControlMsgs - s0.fabric.ControlMsgs
	a.fabric.DataMsgs += s1.fabric.DataMsgs - s0.fabric.DataMsgs
	a.fabric.TotalBytes += s1.fabric.TotalBytes - s0.fabric.TotalBytes
	a.fabric.ControlBytes += s1.fabric.ControlBytes - s0.fabric.ControlBytes
	a.fabric.DataBytes += s1.fabric.DataBytes - s0.fabric.DataBytes
	a.fabric.HopsTraversed += s1.fabric.HopsTraversed - s0.fabric.HopsTraversed
	a.dram = addDRAMPair(a.dram, subDRAMStats(s1.dram, s0.dram))
	a.elided += s1.elided - s0.elided
	a.instr += s1.instr - s0.instr
	a.cycles += uint64(s1.makespan - s0.makespan)
}

func addCounters(a, b Counters) Counters {
	return Counters{
		Loads:             a.Loads + b.Loads,
		Stores:            a.Stores + b.Stores,
		LLCAccesses:       a.LLCAccesses + b.LLCAccesses,
		LLCMisses:         a.LLCMisses + b.LLCMisses,
		RemoteLLCMisses:   a.RemoteLLCMisses + b.RemoteLLCMisses,
		MemReads:          a.MemReads + b.MemReads,
		MemWrites:         a.MemWrites + b.MemWrites,
		RemoteMemReads:    a.RemoteMemReads + b.RemoteMemReads,
		RemoteMemWrites:   a.RemoteMemWrites + b.RemoteMemWrites,
		Broadcasts:        a.Broadcasts + b.Broadcasts,
		BroadcastsAvoided: a.BroadcastsAvoided + b.BroadcastsAvoided,
		DirRecalls:        a.DirRecalls + b.DirRecalls,
		RemoteDRAMProbes:  a.RemoteDRAMProbes + b.RemoteDRAMProbes,
	}
}

func addDRAMPair(a, b dramcache.Stats) dramcache.Stats {
	addDRAMStats(&a, b)
	return a
}

// windowOf converts one boundary pair into the estimator's window form.
func windowOf(s0, s1 sampleSnap) sample.Window {
	c0, c1 := s0.counters, s1.counters
	return sample.Window{
		Accesses:          (c1.Loads + c1.Stores) - (c0.Loads + c0.Stores),
		Instructions:      s1.instr - s0.instr,
		Cycles:            uint64(s1.makespan - s0.makespan),
		LLCAccesses:       c1.LLCAccesses - c0.LLCAccesses,
		LLCMisses:         c1.LLCMisses - c0.LLCMisses,
		FabricBytes:       s1.fabric.TotalBytes - s0.fabric.TotalBytes,
		MemAccesses:       c1.MemAccesses() - c0.MemAccesses(),
		RemoteMemAccesses: c1.RemoteMemAccesses() - c0.RemoteMemAccesses(),
	}
}

// scaleU64 extrapolates a measured-window count to the full stream.
func scaleU64(v uint64, f float64) uint64 {
	return uint64(math.Round(float64(v) * f))
}

// runSampled executes the SMARTS-style sampled schedule over the cores:
// seeded initial fast-forward, then repeating units of detailed warm-up,
// measured window and fast-forward stretch until every stream is exhausted.
// The measured-window deltas feed the estimator; totals are extrapolated by
// the exact measured-to-total access ratio, so the whole result is a pure
// function of (config, trace, spec) and stays byte-identical across
// parallelism and repeated runs.
func (m *Machine) runSampled(ctx context.Context, src trace.Source, cores []*coreRunner, spec sample.Spec) (RunResult, error) {
	var ffInstr, ffAccesses uint64
	steps := 0

	ffCores := make([]ffCore, len(cores))
	for i, cr := range cores {
		sock := m.socketOf(cr.idx)
		ffCores[i] = ffCore{sock: sock, l1: sock.l1Of(cr.idx), bit: sock.presenceOf(cr.idx)}
		if !m.memSide {
			ffCores[i].dc = sock.dramCache
		}
	}

	ffOne := func(cr *coreRunner, ffc *ffCore, target int) error {
		// A detailed phase ran since the last stretch and may have reordered
		// the TLB LRU, so the first record always classifies in full.
		ffc.hasLastB = false
		ffc.lastBlockMod = false
		// Drain the record exhausted() may have prefetched, then fast-forward
		// in slices when the reader supports it: one bounds-checked window
		// per stretch instead of an interface call per record.
		if cr.hasPending && cr.consumed < target {
			rec := cr.pending
			cr.hasPending = false
			cr.consumed++
			m.touch(ffc, cr.idx, rec)
			ffInstr += uint64(rec.Gap) + 1
			ffAccesses++
		}
		if br, ok := cr.rr.(trace.BulkReader); ok {
			for cr.consumed < target {
				recs := br.NextN(target - cr.consumed)
				if len(recs) == 0 {
					break
				}
				cr.consumed += len(recs)
				for i := range recs {
					m.touch(ffc, cr.idx, recs[i])
					ffInstr += uint64(recs[i].Gap) + 1
				}
				ffAccesses += uint64(len(recs))
				// One check per window bounds cancellation latency to a
				// stretch, the same order as the masked per-record check.
				if err := ctx.Err(); err != nil {
					return err
				}
			}
		}
		for cr.consumed < target {
			if !cr.fill() {
				if cr.rdErr != nil {
					return fmt.Errorf("machine: core %d stream: %w", cr.idx, cr.rdErr)
				}
				return nil
			}
			rec := cr.pending
			cr.hasPending = false
			cr.consumed++
			m.touch(ffc, cr.idx, rec)
			ffInstr += uint64(rec.Gap) + 1
			ffAccesses++
			if steps++; steps&cancelCheckMask == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
		}
		return nil
	}
	ff := func(n int) error {
		if n <= 0 {
			return nil
		}
		for i, cr := range cores {
			if err := ffOne(cr, &ffCores[i], cr.consumed+n); err != nil {
				return err
			}
		}
		return nil
	}
	detailed := func(n int) error {
		for _, cr := range cores {
			cr.limit = cr.consumed + n
		}
		return m.execute(ctx, cores)
	}
	exhausted := func() (bool, error) {
		for _, cr := range cores {
			if cr.fill() {
				return false, nil
			}
			if cr.rdErr != nil {
				return false, fmt.Errorf("machine: core %d stream: %w", cr.idx, cr.rdErr)
			}
		}
		return true, nil
	}

	if err := ff(spec.Phase()); err != nil {
		return RunResult{}, err
	}
	var windows []sample.Window
	var meas measAccum
	//c3dlint:allow ctxcheck(every iteration runs detailed() and ff(), both of which check ctx between accesses)
	for {
		done, err := exhausted()
		if err != nil {
			return RunResult{}, err
		}
		if done {
			break
		}
		if err := detailed(spec.Warm); err != nil {
			return RunResult{}, err
		}
		s0 := m.sampleSnapshot(cores)
		if err := detailed(spec.Window); err != nil {
			return RunResult{}, err
		}
		s1 := m.sampleSnapshot(cores)
		if w := windowOf(s0, s1); w.Accesses > 0 {
			windows = append(windows, w)
			meas.add(s0, s1)
		}
		if err := ff(spec.Stretch); err != nil {
			return RunResult{}, err
		}
	}

	est, err := sample.EstimateWindows(windows)
	if err != nil {
		return RunResult{}, fmt.Errorf("machine: trace %q with spec %q: %w", src.Name(), spec, err)
	}

	// Exact stream totals: fast-forward saw every skipped record, the cores
	// counted every detailed one.
	var detailedInstr uint64
	final := m.Counters()
	for _, cr := range cores {
		cr.core.Drain()
		detailedInstr += cr.core.Stats().Instructions
	}
	totalInstr := ffInstr + detailedInstr
	totalAccesses := ffAccesses + final.Loads + final.Stores
	if meas.counters.Loads+meas.counters.Stores == 0 {
		return RunResult{}, fmt.Errorf("machine: trace %q with spec %q: measured windows contain no accesses", src.Name(), spec)
	}
	f := float64(totalAccesses) / float64(meas.counters.Loads+meas.counters.Stores)

	c := meas.counters
	res := RunResult{
		Design:       m.cfg.Design,
		Workload:     src.Name(),
		Sockets:      m.cfg.Sockets,
		Cores:        m.cfg.Cores(),
		Policy:       m.cfg.MemPolicy,
		Topology:     m.fabric.Topology(),
		Cycles:       uint64(math.Round(est.CPI.Value * float64(totalInstr))),
		Instructions: totalInstr,
		Counters: Counters{
			Loads:             scaleU64(c.Loads, f),
			Stores:            scaleU64(c.Stores, f),
			LLCAccesses:       scaleU64(c.LLCAccesses, f),
			LLCMisses:         scaleU64(c.LLCMisses, f),
			RemoteLLCMisses:   scaleU64(c.RemoteLLCMisses, f),
			MemReads:          scaleU64(c.MemReads, f),
			MemWrites:         scaleU64(c.MemWrites, f),
			RemoteMemReads:    scaleU64(c.RemoteMemReads, f),
			RemoteMemWrites:   scaleU64(c.RemoteMemWrites, f),
			Broadcasts:        scaleU64(c.Broadcasts, f),
			BroadcastsAvoided: scaleU64(c.BroadcastsAvoided, f),
			DirRecalls:        scaleU64(c.DirRecalls, f),
			RemoteDRAMProbes:  scaleU64(c.RemoteDRAMProbes, f),
		},
		PageStats: m.pageTable.Stats(),
	}
	if meas.latCount > 0 {
		res.Counters.MeanLoadLatency = float64(meas.latTotal) / float64(meas.latCount)
	}
	res.InterSocketBytes = scaleU64(meas.fabric.TotalBytes, f)
	res.InterSocketControlBytes = scaleU64(meas.fabric.ControlBytes, f)
	res.InterSocketDataBytes = scaleU64(meas.fabric.DataBytes, f)
	res.InterSocketMessages = scaleU64(meas.fabric.Messages, f)
	if m.cfg.Design.HasDRAMCache() {
		res.DRAMCacheStats = dramcache.Stats{
			Reads:       scaleU64(meas.dram.Reads, f),
			Writes:      scaleU64(meas.dram.Writes, f),
			ReadHits:    scaleU64(meas.dram.ReadHits, f),
			WriteHits:   scaleU64(meas.dram.WriteHits, f),
			Fills:       scaleU64(meas.dram.Fills, f),
			Evictions:   scaleU64(meas.dram.Evictions, f),
			DirtyEvicts: scaleU64(meas.dram.DirtyEvicts, f),
			Invalidates: scaleU64(meas.dram.Invalidates, f),
		}
		if acc := meas.dram.Accesses(); acc > 0 {
			res.DRAMCacheHitRate = float64(meas.dram.ReadHits+meas.dram.WriteHits) / float64(acc)
		}
	}
	res.BroadcastFilterElided = scaleU64(meas.elided, f)
	for _, cr := range cores {
		res.PerCore = append(res.PerCore, cr.core.Stats())
	}
	res.Sampling = &SamplingResult{
		Spec:             spec.String(),
		Windows:          len(windows),
		SampledAccesses:  c.Loads + c.Stores,
		DetailedAccesses: final.Loads + final.Stores,
		TotalAccesses:    totalAccesses,
		Estimates:        est,
	}
	if err := m.CheckInvariants(); err != nil {
		return res, err
	}
	return res, nil
}
