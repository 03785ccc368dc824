package machine

import (
	"fmt"

	"c3d/internal/addr"
	"c3d/internal/cache"
	"c3d/internal/coherence"
	"c3d/internal/core"
	"c3d/internal/interconnect"
	"c3d/internal/numa"
	"c3d/internal/sim"
	"c3d/internal/stats"
	"c3d/internal/tlb"
	"c3d/internal/workload"
)

// accessCounters aggregates machine-level accounting that is not owned by a
// single component.
type accessCounters struct {
	loads  uint64
	stores uint64

	llcMisses      uint64
	llcAccesses    uint64
	remoteAccesses uint64 // LLC misses whose home is a remote socket

	memReads        uint64
	memWrites       uint64
	remoteMemReads  uint64
	remoteMemWrites uint64

	broadcasts        uint64
	broadcastsAvoided uint64
	dirRecalls        uint64
	remoteDRAMProbes  uint64 // probes of remote DRAM caches (snoopy/full-dir pathology)

	loadLatency stats.LatencyAccumulator
}

// Machine is the complete simulated NUMA system.
type Machine struct {
	cfg     Config
	sockets []*Socket
	fabric  *interconnect.Fabric

	pageTable  *numa.PageTable
	classifier *tlb.Classifier
	filter     *core.BroadcastFilter

	engine Engine
	// memSide marks a design whose DRAM caches are memory-side: each fronts
	// its own socket's memory and holds only blocks homed there (§II-C).
	// homeRead, homeWrite and functional warming route through it.
	memSide bool
	// everySocket is the set of all sockets, the target of a broadcast.
	everySocket coherence.SharerSet

	counters accessCounters
}

// New builds a machine from cfg. It panics on an invalid configuration
// (construction happens at experiment-setup time where misconfiguration
// should fail loudly). The design and the fabric topology both resolve
// through their registries: there is no design or topology switch here to
// extend.
func New(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	spec := mustDesignSpec(cfg.Design)
	m := &Machine{cfg: cfg, memSide: cfg.Design.HasDRAMCache() && !cfg.Design.HasPrivateDRAMCache()}
	for s := 0; s < cfg.Sockets; s++ {
		m.sockets = append(m.sockets, newSocket(s, cfg, spec))
		m.everySocket = m.everySocket.Add(s)
	}
	icCfg, err := cfg.fabricConfig()
	if err != nil {
		// Unreachable: Validate resolved the same fabric config above.
		panic(err)
	}
	m.fabric = interconnect.New(icCfg)
	if cfg.ZeroHopLatency {
		m.fabric.SetZeroLatency()
	}
	if cfg.InfiniteLinkBW {
		m.fabric.SetInfiniteBandwidth()
	}
	m.pageTable = numa.NewPageTable(cfg.Sockets, cfg.MemPolicy)
	m.classifier = tlb.NewClassifier()
	m.filter = core.NewBroadcastFilter(m.classifier, cfg.EnableBroadcastFilter)

	// Sparse directory slices prefer to victimise entries whose block has
	// already left every on-chip cache (the LLCs are inclusive of the L1s,
	// so probing the LLCs is sufficient).
	uncached := func(b addr.Block) bool {
		for _, s := range m.sockets {
			if s.llc.Contains(b) {
				return false
			}
		}
		return true
	}
	for _, s := range m.sockets {
		if s.dir != nil {
			s.dir.SetStalePredicate(uncached)
		}
		if s.c3dDir != nil {
			s.c3dDir.SetStalePredicate(uncached)
		}
	}

	m.engine = spec.NewEngine(m)
	return m
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Sockets returns the machine's sockets.
func (m *Machine) Sockets() []*Socket { return m.sockets }

// Fabric returns the inter-socket interconnect.
func (m *Machine) Fabric() *interconnect.Fabric { return m.fabric }

// PageTable returns the NUMA page table.
func (m *Machine) PageTable() *numa.PageTable { return m.pageTable }

// Classifier returns the OS page classifier used by the §IV-D filter.
func (m *Machine) Classifier() *tlb.Classifier { return m.classifier }

// socketOf returns the socket owning the given global core id.
func (m *Machine) socketOf(coreID int) *Socket {
	return m.sockets[coreID/m.cfg.CoresPerSocket]
}

// home returns the home socket of a block according to the page table.
func (m *Machine) home(b addr.Block) *Socket {
	return m.sockets[m.pageTable.HomeOfBlock(b)]
}

// --- cpu.MemorySystem implementation ---

// Read performs a load issued by coreID at time now.
func (m *Machine) Read(now sim.Time, coreID int, a addr.Addr) sim.Time {
	sock := m.socketOf(coreID)
	b := addr.BlockOf(a)
	m.counters.loads++
	m.classify(coreID, a)

	// L1.
	l1 := sock.l1Of(coreID)
	t := now.Add(m.cfg.L1Latency)
	if _, hit := l1.Lookup(b); hit {
		m.counters.loadLatency.Observe(uint64(t.Sub(now)))
		return t
	}
	// LLC (the local directory lookup is part of the LLC tag access).
	m.counters.llcAccesses++
	if line, hit := sock.llc.Lookup(b); hit {
		t = t.Add(m.cfg.LLCTagLatency).Add(m.cfg.LLCDataLatency)
		line.Presence |= sock.presenceOf(coreID)
		m.fillL1(sock, coreID, b, coherence.LineShared)
		m.counters.loadLatency.Observe(uint64(t.Sub(now)))
		return t
	}
	t = t.Add(m.cfg.LLCTagLatency)
	m.counters.llcMisses++
	if m.home(b) != sock {
		m.counters.remoteAccesses++
	}
	done := m.engine.ReadMiss(t, sock, coreID, b)
	m.fillLLC(done, sock, coreID, b, coherence.LineShared, false)
	m.fillL1(sock, coreID, b, coherence.LineShared)
	m.counters.loadLatency.Observe(uint64(done.Sub(now)))
	return done
}

// Write performs a store issued by coreID at time now and returns the time
// the store is globally performed.
func (m *Machine) Write(now sim.Time, coreID int, a addr.Addr) sim.Time {
	sock := m.socketOf(coreID)
	b := addr.BlockOf(a)
	m.counters.stores++
	m.classify(coreID, a)

	l1 := sock.l1Of(coreID)
	t := now.Add(m.cfg.L1Latency)
	if line, hit := l1.Lookup(b); hit && line.State == coherence.LineModified {
		// Write hit with ownership already held by this core.
		m.markLLCDirty(sock, b)
		return t
	}
	// LLC lookup: a Modified LLC line means the socket already owns the
	// block; within-socket sharing is resolved by the local directory
	// (modelled as the LLC tag+data latency).
	m.counters.llcAccesses++
	line, hit := sock.llc.Lookup(b)
	if hit && line.State == coherence.LineModified {
		t = t.Add(m.cfg.LLCTagLatency).Add(m.cfg.LLCDataLatency)
		line.Dirty = true
		sock.invalidateL1sExcept(coreID, b)
		m.fillL1(sock, coreID, b, coherence.LineModified)
		return t
	}
	t = t.Add(m.cfg.LLCTagLatency)
	upgrade := hit && line.State == coherence.LineShared
	m.counters.llcMisses++
	if m.home(b) != sock {
		m.counters.remoteAccesses++
	}
	done := m.engine.WriteMiss(t, sock, coreID, b, upgrade)
	m.fillLLC(done, sock, coreID, b, coherence.LineModified, true)
	sock.invalidateL1sExcept(coreID, b)
	m.fillL1(sock, coreID, b, coherence.LineModified)
	return done
}

// classify records the access with the OS page classifier (used by the §IV-D
// broadcast filter) and the core's TLB (miss statistics only).
func (m *Machine) classify(coreID int, a addr.Addr) {
	page := addr.PageOf(a)
	sock := m.socketOf(coreID)
	sock.tlbOf(coreID).Access(page)
	// Threads are pinned in this simulator, so the thread id equals the core
	// id and migrations never occur.
	m.classifier.Access(page, coreID, coreID)
}

// fillL1 installs the block in the requesting core's L1; the caller has
// already recorded the core in the LLC line's presence bits. L1 victims are
// dropped silently: the L1s are write-through into the LLC, so no data is
// lost and the LLC inclusive copy keeps intra-socket coherence simple (the
// victim's presence bit stays set, which is conservative).
func (m *Machine) fillL1(sock *Socket, coreID int, b addr.Block, st cache.State) {
	sock.l1Of(coreID).Fill(b, st, false, 0)
}

// markLLCDirty marks the block dirty in the LLC (stores are write-through
// from the L1 into the LLC so the LLC dirty bit is authoritative).
func (m *Machine) markLLCDirty(sock *Socket, b addr.Block) {
	if line, ok := sock.llc.Probe(b); ok {
		line.Dirty = true
		line.State = coherence.LineModified
	}
}

// fillLLC installs the block in the socket's LLC with the requesting core
// recorded in its presence bits (its L1 fill follows) and routes the victim
// (if any) to the engine's eviction handler.
func (m *Machine) fillLLC(now sim.Time, sock *Socket, coreID int, b addr.Block, st cache.State, dirty bool) {
	victim := sock.llc.Fill(b, st, dirty, sock.presenceOf(coreID))
	if victim.Valid {
		// The victim also disappears from the L1s (inclusive hierarchy).
		sock.invalidateL1s(victim.Presence, -1, victim.Block)
		m.engine.LLCEvict(now, sock, victim)
	}
}

// --- shared helpers used by the design engines ---

// sendControl models a 16-byte control packet between sockets and returns its
// arrival time.
func (m *Machine) sendControl(now sim.Time, from, to *Socket) sim.Time {
	return m.fabric.Send(now, from.id, to.id, interconnect.Control)
}

// sendData models an 80-byte data packet between sockets and returns its
// arrival time.
func (m *Machine) sendData(now sim.Time, from, to *Socket) sim.Time {
	return m.fabric.Send(now, from.id, to.id, interconnect.Data)
}

// memRead reads the block from its home memory and accounts whether the
// requester was remote. Engines read through homeRead.
func (m *Machine) memRead(now sim.Time, homeSock *Socket, requester *Socket, b addr.Block) sim.Time {
	m.counters.memReads++
	if homeSock != requester {
		m.counters.remoteMemReads++
	}
	return homeSock.mem.Read(now, b)
}

// memWrite writes the block to its home memory and accounts whether the
// writer was remote.
func (m *Machine) memWrite(now sim.Time, homeSock *Socket, requester *Socket, b addr.Block) sim.Time {
	m.counters.memWrites++
	if homeSock != requester {
		m.counters.remoteMemWrites++
	}
	return homeSock.mem.Write(now, b)
}

// dirLatency returns the global directory access latency.
func (m *Machine) dirLatency() sim.Cycles { return m.cfg.GlobalDirLatency }

// Counters exposes a snapshot of the machine-level counters (used by tests
// and the runner). Broadcast counts are aggregated from the C3D directory
// slices; they are zero for the other designs.
func (m *Machine) Counters() Counters {
	c := m.counters
	out := Counters{
		Loads:            c.loads,
		Stores:           c.stores,
		LLCAccesses:      c.llcAccesses,
		LLCMisses:        c.llcMisses,
		RemoteLLCMisses:  c.remoteAccesses,
		MemReads:         c.memReads,
		MemWrites:        c.memWrites,
		RemoteMemReads:   c.remoteMemReads,
		RemoteMemWrites:  c.remoteMemWrites,
		DirRecalls:       c.dirRecalls,
		RemoteDRAMProbes: c.remoteDRAMProbes,
		MeanLoadLatency:  c.loadLatency.Mean(),
	}
	for _, s := range m.sockets {
		if s.c3dDir != nil {
			ds := s.c3dDir.Stats()
			out.Broadcasts += ds.Broadcasts
			out.BroadcastsAvoided += ds.BroadcastsAvd
		}
	}
	return out
}

// Counters is the exported snapshot of machine-level accounting.
type Counters struct {
	Loads             uint64
	Stores            uint64
	LLCAccesses       uint64
	LLCMisses         uint64
	RemoteLLCMisses   uint64
	MemReads          uint64
	MemWrites         uint64
	RemoteMemReads    uint64
	RemoteMemWrites   uint64
	Broadcasts        uint64
	BroadcastsAvoided uint64
	DirRecalls        uint64
	RemoteDRAMProbes  uint64
	MeanLoadLatency   float64
}

// MemAccesses returns total memory accesses.
func (c Counters) MemAccesses() uint64 { return c.MemReads + c.MemWrites }

// RemoteMemAccesses returns memory accesses served by a remote socket's
// memory.
func (c Counters) RemoteMemAccesses() uint64 { return c.RemoteMemReads + c.RemoteMemWrites }

// RemoteMemFraction returns the Table I metric: the fraction of memory
// accesses satisfied by a remote socket's memory.
func (c Counters) RemoteMemFraction() float64 {
	total := c.MemAccesses()
	if total == 0 {
		return 0
	}
	return float64(c.RemoteMemAccesses()) / float64(total)
}

// LLCMissRate returns LLC misses per LLC access.
func (c Counters) LLCMissRate() float64 {
	if c.LLCAccesses == 0 {
		return 0
	}
	return float64(c.LLCMisses) / float64(c.LLCAccesses)
}

// Reset returns the machine to its just-constructed state — caches,
// directories, DRAM caches and TLBs emptied, the page table and classifier
// forgotten, every clock and counter rewound — without reallocating any of
// them. A reset machine run on a trace produces results bit-identical to a
// freshly built machine's, so sweeps and benchmarks reuse machines across
// repetitions instead of paying construction for every job.
func (m *Machine) Reset() {
	m.counters = accessCounters{}
	m.fabric.Reset()
	m.pageTable.Reset()
	m.classifier.Reset()
	m.filter.ResetStats()
	for _, s := range m.sockets {
		s.reset()
	}
}

// resetStats clears every statistic in the machine (cores excepted — the
// runner resets those) without touching cache or directory contents.
func (m *Machine) resetStats() {
	m.counters = accessCounters{}
	m.fabric.ResetStats()
	for _, s := range m.sockets {
		s.resetStats()
	}
	m.classifier.ResetStats()
	m.filter.ResetStats()
}

// CheckInvariants verifies cross-cutting invariants after a run; it returns
// an error describing the first violation. It checks, for every socket:
//   - inclusion: each valid L1 line has a valid LLC line, whose presence bits
//     name that L1 (the back-invalidation sweeps visit only the L1s those
//     bits name, so a missing bit would leave a stale copy behind);
//   - the clean property: a C3D machine must never hold a dirty block in any
//     DRAM cache;
//   - homing: a memory-side DRAM cache holds only blocks homed at its own
//     socket (scanned only under memory-side designs, so no other design
//     pays for it).
func (m *Machine) CheckInvariants() error {
	for _, s := range m.sockets {
		if err := s.checkInclusion(); err != nil {
			return err
		}
		if s.dramCache == nil {
			continue
		}
		if m.cfg.Design.CleanDRAMCache() && s.dramCache.HasDirtyBlocks() {
			return fmt.Errorf("machine: socket %d DRAM cache holds dirty blocks under the clean policy", s.id)
		}
		if m.memSide {
			if err := m.checkHoming(s); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkHoming reports the first block in socket s's memory-side DRAM cache
// that is homed at another socket. It peeks at the page table rather than
// resolving homes, so an unplaced page is not placed by the check.
func (m *Machine) checkHoming(s *Socket) error {
	var err error
	s.dramCache.ForEach(func(l cache.Line) {
		if home := m.pageTable.PeekHome(addr.PageOfBlock(l.Block)); err == nil && home != s.id {
			err = fmt.Errorf("machine: socket %d memory-side DRAM cache holds block %#x homed at socket %d",
				s.id, uint64(l.Block), home)
		}
	})
	return err
}

// workloadOptions returns the workload generation options matching this
// machine's scale and core count, so experiments cannot accidentally mismatch
// the two.
func (m *Machine) workloadOptions() workload.Options {
	return workload.Options{Threads: m.cfg.Cores(), Scale: m.cfg.Scale}
}
