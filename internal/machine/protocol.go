package machine

import (
	"c3d/internal/addr"
	"c3d/internal/cache"
	"c3d/internal/coherence"
	"c3d/internal/core"
	"c3d/internal/sim"
)

// The protocol steps the design engines share, each written once. Every
// helper issues its sim.Resource acquisitions (fabric links, memory and
// DRAM-cache channels) in one fixed order: simulated timing depends on that
// order, so a caller may not reorder the steps around them.

// dirRequestArrival models the request's trip to the home directory: the
// control message (if the home is remote) plus the directory access latency.
func dirRequestArrival(m *Machine, now sim.Time, sock, home *Socket) sim.Time {
	t := m.sendControl(now, sock, home)
	return t.Add(m.dirLatency())
}

// homeRead reads block b at its home socket on behalf of requester and
// returns when the data is ready there. Under a memory-side design the
// home's DRAM cache is checked first; a miss reads memory and installs the
// block clean (the cache fronts memory, so dirty data only arrives through
// homeWrite).
func (m *Machine) homeRead(now sim.Time, home, requester *Socket, b addr.Block) sim.Time {
	if !m.memSide {
		return m.memRead(now, home, requester, b)
	}
	res := home.dramCache.Access(now, b, false)
	if res.Hit {
		return res.Done
	}
	t := m.memRead(res.Done, home, requester, b)
	m.memSideFill(t, home, b, false)
	return t
}

// homeWrite writes block b back to its home socket on behalf of writer. Under
// a memory-side design the home's DRAM cache absorbs the write, and memory is
// updated only when that cache evicts the block.
func (m *Machine) homeWrite(now sim.Time, home, writer *Socket, b addr.Block) {
	if !m.memSide {
		m.memWrite(now, home, writer, b)
		return
	}
	m.memSideFill(now, home, b, true)
}

// memSideFill installs block b in home's memory-side DRAM cache and writes a
// dirty victim back to the memory beside it (no interconnect traffic).
func (m *Machine) memSideFill(now sim.Time, home *Socket, b addr.Block, dirty bool) {
	if v := home.dramCache.Fill(now, b, coherence.LineShared, dirty).Victim; v.Valid && v.Dirty {
		m.memWrite(now, home, home, v.Block)
	}
}

// homeReply is the data-or-grant leg of a request the home serves: the block
// read at the home and sent as data, or, when the requester already holds
// the data, a dataless grant. It returns when the reply reaches the
// requester.
func (m *Machine) homeReply(now sim.Time, home, requester *Socket, b addr.Block, haveData bool) sim.Time {
	if haveData {
		return m.sendControl(now, home, requester)
	}
	return m.sendData(m.homeRead(now, home, requester, b), home, requester)
}

// forwardToOwner models a request the home directory forwards to owner,
// which holds block b Modified on-chip: the owner reads its LLC and sends the
// data to the requester. A write invalidates the owner's on-chip copies; a
// read downgrades them to Shared and writes the data back to the home, off
// the requester's critical path, so memory is valid for later readers. It
// returns when the data reaches the requester.
func (m *Machine) forwardToOwner(now sim.Time, home, owner, requester *Socket, b addr.Block, write bool) sim.Time {
	t := m.sendControl(now, home, owner).Add(m.cfg.LLCTagLatency).Add(m.cfg.LLCDataLatency)
	if write {
		owner.invalidateOnChip(b)
	} else {
		owner.downgradeOnChip(b)
		m.homeWrite(m.sendData(t, owner, home), home, owner, b)
	}
	return m.sendData(t, owner, requester)
}

// invalidateSharers sends an invalidation from home to every socket in
// targets and returns when the requester holds the last acknowledgement (now
// when targets is empty). Each target drops its on-chip copies; with
// dramCache set it also drops its DRAM-cache copy, paying one DRAM-cache
// access before it acknowledges.
func (m *Machine) invalidateSharers(now sim.Time, home, requester *Socket, targets coherence.SharerSet, b addr.Block, dramCache bool) sim.Time {
	acks := now
	targets.ForEach(func(sidx int) {
		target := m.sockets[sidx]
		inv := m.sendControl(now, home, target)
		target.invalidateOnChip(b)
		if dramCache {
			target.dramCache.Invalidate(b)
			inv = inv.Add(sim.NsToCycles(m.cfg.DRAMCacheLatencyNs))
		}
		acks = sim.Max(acks, m.sendControl(inv, target, requester))
	})
	return acks
}

// evictToDirtyVictimCache is the LLC eviction of the dirty-victim-cache
// designs (§III): the socket's private DRAM cache absorbs the victim, dirty
// or clean, and memory is written only when the DRAM cache itself evicts a
// dirty block. It returns that DRAM-cache victim (invalid if none).
func (m *Machine) evictToDirtyVictimCache(now sim.Time, sock *Socket, victim cache.Victim) cache.Victim {
	action := core.DirtyLLCEviction(victim.State, victim.Dirty)
	if !action.FillLocalDRAMCache {
		return cache.Victim{}
	}
	dcVictim := sock.dramCache.Fill(now, victim.Block, victim.State, action.FillDirty).Victim
	if dcVictim.Valid && core.DRAMCacheEvictionNeedsWriteback(false, dcVictim.Dirty) {
		home := m.home(dcVictim.Block)
		m.memWrite(m.sendData(now, sock, home), home, sock, dcVictim.Block)
	}
	return dcVictim
}

// handleRecall invalidates the on-chip copies tracked by a recalled directory
// entry; the traffic is control-only unless a Modified copy has to be written
// back. Recalls are off the requesting core's critical path.
func handleRecall(m *Machine, now sim.Time, home *Socket, recall coherence.Recall) {
	if !recall.Valid {
		return
	}
	m.counters.dirRecalls++
	targets := recall.Entry.Sharers
	if recall.Entry.State == coherence.DirModified {
		targets = coherence.NewSharerSet(recall.Entry.Owner)
	}
	targets.ForEach(func(sidx int) {
		target := m.sockets[sidx]
		arr := m.sendControl(now, home, target)
		victim := target.invalidateOnChip(recall.Block)
		if victim.Valid && victim.Dirty {
			wb := m.sendData(arr, target, home)
			// Straight to memory, not homeWrite: a memory-side DRAM cache is
			// bypassed here, and the pinned shared-design results rely on it.
			m.memWrite(wb, home, target, recall.Block)
		} else {
			m.sendControl(arr, target, home)
		}
		// Under the clean-cache designs the recalled copy may legitimately be
		// retained in the target's DRAM cache: clean DRAM-cache blocks are
		// untracked by design, and a later write will reach them via the
		// broadcast path. The recall only needs the on-chip copy gone.
		if victim.Valid && target.dramCache != nil && m.cfg.Design.CleanDRAMCache() {
			target.dramCache.Fill(arr, recall.Block, coherence.LineShared, false)
		}
	})
}
