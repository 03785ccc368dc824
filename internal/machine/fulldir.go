package machine

import (
	"c3d/internal/addr"
	"c3d/internal/cache"
	"c3d/internal/coherence"
	"c3d/internal/sim"
)

// fullDirEngine is the naive directory design of §III-B: private, dirty
// (write-back) DRAM caches tracked by an inclusive global directory that
// covers every cached block in the system. The directory is modelled
// optimistically, exactly as the paper does: unbounded capacity (no recalls)
// and the baseline's 10-cycle access latency, even though a real
// implementation would need tens to hundreds of megabytes per socket
// (coherence.InclusiveDirCost quantifies that).
//
// Its remaining weakness is inherent: a block that is dirty in a remote
// socket's DRAM cache must be fetched from that DRAM cache, which is slower
// than the memory access the baseline would have performed.
type fullDirEngine struct {
	m *Machine
}

func init() {
	RegisterDesign(DesignSpec{
		Name:             FullDir,
		Description:      "private dirty DRAM caches tracked by an idealised inclusive full directory (§III-B)",
		Rank:             2,
		Evaluated:        true,
		HasDRAMCache:     true,
		PrivateDRAMCache: true,
		NewEngine:        func(m *Machine) Engine { return &fullDirEngine{m: m} },
		// The paper models the naive full directory without recalls
		// (unbounded) and with the baseline's 10-cycle latency, an
		// optimistic assumption it calls out explicitly.
		NewDirectories: UnboundedGenericDirectory,
	})
}

// reachOwner forwards a request from the home to owner, which the directory
// records as holding block b Modified, and returns when the owner has the
// data and whether it found it on-chip. The on-chip hierarchy is probed
// first; if the dirty data has been evicted into the owner's DRAM cache, the
// access pays the full remote-DRAM-cache latency — the slow-remote-hit
// pathology (§III-B, Fig. 4).
func (e *fullDirEngine) reachOwner(now sim.Time, home, owner *Socket, b addr.Block) (sim.Time, bool) {
	m := e.m
	t := m.sendControl(now, home, owner).Add(m.cfg.LLCTagLatency)
	if state, chipDirty, onChip := owner.probeOnChip(b); onChip && (chipDirty || state == coherence.LineModified) {
		return t.Add(m.cfg.LLCDataLatency), true
	}
	m.counters.remoteDRAMProbes++
	_, _, done := owner.dramCache.Probe(t, b)
	return done, false
}

func (e *fullDirEngine) ReadMiss(now sim.Time, sock *Socket, coreID int, b addr.Block) sim.Time {
	m := e.m
	res := sock.dramCache.Access(now, b, false)
	if res.Hit {
		return res.Done
	}
	t := res.Done
	home := m.home(b)
	t = dirRequestArrival(m, t, sock, home)

	entry, ok := home.dir.Lookup(b)
	if ok && entry.State == coherence.DirModified && entry.Owner != sock.id {
		owner := m.sockets[entry.Owner]
		var onChip bool
		t, onChip = e.reachOwner(t, home, owner, b)
		// Either way the data is written back (and the owner's DRAM-cache
		// copy made clean) so memory is usable for later readers.
		if onChip {
			owner.downgradeOnChip(b)
			m.memWrite(m.sendData(t, owner, home), home, owner, b)
			if line, okDC, _ := owner.dramCache.Probe(t, b); okDC && line.Dirty {
				owner.dramCache.CleanBlock(b)
			}
		} else {
			owner.dramCache.CleanBlock(b)
			m.memWrite(m.sendData(t, owner, home), home, owner, b)
		}
		t = m.sendData(t, owner, sock)
		home.dir.Update(b, coherence.Entry{
			State:   coherence.DirShared,
			Sharers: entry.Sharers.Add(entry.Owner).Add(sock.id),
		})
		return t
	}
	// Clean (Shared) or untracked: memory supplies the data without touching
	// any remote DRAM cache.
	t = m.homeReply(t, home, sock, b, false)
	home.dir.Update(b, coherence.Entry{State: coherence.DirShared, Sharers: entry.Sharers.Add(sock.id)})
	return t
}

func (e *fullDirEngine) WriteMiss(now sim.Time, sock *Socket, coreID int, b addr.Block, upgrade bool) sim.Time {
	m := e.m
	res := sock.dramCache.Access(now, b, true)
	t := res.Done
	home := m.home(b)
	t = dirRequestArrival(m, t, sock, home)

	entry, _ := home.dir.Lookup(b)
	var done sim.Time
	if entry.State == coherence.DirModified && entry.Owner != sock.id {
		owner := m.sockets[entry.Owner]
		fwd, _ := e.reachOwner(t, home, owner, b)
		owner.invalidateOnChip(b)
		owner.dramCache.Invalidate(b)
		done = m.sendData(fwd, owner, sock)
	} else {
		// Invalidate precisely the tracked sharers (their DRAM caches
		// included); data comes from memory in parallel unless the requester
		// already holds it.
		acks := m.invalidateSharers(t, home, sock, entry.Sharers.Others(sock.id), b, true)
		done = sim.Max(m.homeReply(t, home, sock, b, upgrade || res.Hit), acks)
	}
	home.dir.Update(b, coherence.Entry{
		State:   coherence.DirModified,
		Owner:   sock.id,
		Sharers: coherence.NewSharerSet(sock.id),
	})
	return done
}

func (e *fullDirEngine) LLCEvict(now sim.Time, sock *Socket, victim cache.Victim) {
	m := e.m
	// Same dirty-victim-cache behaviour as the snoopy design; the directory
	// keeps tracking the socket (it already does, since the directory is
	// inclusive of the DRAM cache).
	dcVictim := m.evictToDirtyVictimCache(now, sock, victim)
	if !dcVictim.Valid {
		return
	}
	// Tell the (unbounded) directory this socket no longer caches the
	// victim, so later writes do not invalidate it needlessly.
	home := m.home(dcVictim.Block)
	entry, ok := home.dir.Probe(dcVictim.Block)
	if !ok || sock.llc.Contains(dcVictim.Block) {
		return
	}
	entry.Sharers = entry.Sharers.Remove(sock.id)
	if entry.State == coherence.DirModified && entry.Owner == sock.id {
		entry.State = coherence.DirShared
	}
	if entry.Sharers.Empty() {
		home.dir.Remove(dcVictim.Block)
	} else {
		home.dir.Update(dcVictim.Block, entry)
	}
	m.sendControl(now, sock, home)
}
