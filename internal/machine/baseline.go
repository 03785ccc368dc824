package machine

import (
	"c3d/internal/addr"
	"c3d/internal/cache"
	"c3d/internal/coherence"
	"c3d/internal/sim"
)

// baselineEngine is the directory protocol of the reference machine of §V-A:
// the per-socket LLCs are kept coherent by a sparse global directory at each
// block's home socket.
//
// It also runs the shared (memory-side) DRAM-cache organisation of §II-C,
// whose on-chip coherence is the same. There each socket's DRAM cache fronts
// that socket's memory and caches only addresses homed there, so it needs no
// coherence of its own: homeRead and homeWrite route the home's memory
// accesses through it. Aggregate capacity scales with the socket count, but
// every LLC miss to a remote home still crosses the interconnect — the design
// filters memory accesses, not off-socket traffic.
type baselineEngine struct {
	m *Machine
}

func init() {
	newEngine := func(m *Machine) Engine { return &baselineEngine{m: m} }
	RegisterDesign(DesignSpec{
		Name:           Baseline,
		Description:    "reference machine without DRAM caches (§V-A)",
		Rank:           0,
		Evaluated:      true,
		NewEngine:      newEngine,
		NewDirectories: SparseGenericDirectory,
	})
	RegisterDesign(DesignSpec{
		Name:           SharedDRAM,
		Description:    "memory-side DRAM caches fronting each socket's memory: no coherence, no traffic reduction (§II-C)",
		Rank:           5,
		HasDRAMCache:   true,
		NewEngine:      newEngine,
		NewDirectories: SparseGenericDirectory,
	})
}

func (e *baselineEngine) ReadMiss(now sim.Time, sock *Socket, coreID int, b addr.Block) sim.Time {
	m := e.m
	home := m.home(b)
	t := dirRequestArrival(m, now, sock, home)

	entry, ok := home.dir.Lookup(b)
	var sharers coherence.SharerSet
	if ok && entry.State == coherence.DirModified && entry.Owner != sock.id {
		// The block is dirty in another socket's on-chip hierarchy: the owner
		// downgrades to Shared, writes the data back and forwards it.
		t = m.forwardToOwner(t, home, m.sockets[entry.Owner], sock, b, false)
		sharers = entry.Sharers.Add(entry.Owner).Add(sock.id)
	} else {
		// Shared or untracked: the home socket supplies the data.
		t = m.homeReply(t, home, sock, b, false)
		sharers = entry.Sharers.Add(sock.id)
	}
	recall := home.dir.Update(b, coherence.Entry{State: coherence.DirShared, Sharers: sharers})
	handleRecall(m, t, home, recall)
	return t
}

func (e *baselineEngine) WriteMiss(now sim.Time, sock *Socket, coreID int, b addr.Block, upgrade bool) sim.Time {
	m := e.m
	home := m.home(b)
	t := dirRequestArrival(m, now, sock, home)

	entry, _ := home.dir.Lookup(b)
	var done sim.Time
	if entry.State == coherence.DirModified && entry.Owner != sock.id {
		// Ownership transfer: the previous owner forwards the (possibly
		// dirty) block and invalidates its copies.
		done = m.forwardToOwner(t, home, m.sockets[entry.Owner], sock, b, true)
	} else {
		// Invalidate the tracked sharers (none for an untracked block); the
		// data comes from the home, which is up to date for Shared blocks,
		// in parallel — or only the grant, for an upgrade.
		var sharers coherence.SharerSet
		if entry.State == coherence.DirShared {
			sharers = entry.Sharers.Others(sock.id)
		}
		acks := m.invalidateSharers(t, home, sock, sharers, b, false)
		done = sim.Max(m.homeReply(t, home, sock, b, upgrade), acks)
	}
	recall := home.dir.Update(b, coherence.Entry{
		State:   coherence.DirModified,
		Owner:   sock.id,
		Sharers: coherence.NewSharerSet(sock.id),
	})
	handleRecall(m, done, home, recall)
	return done
}

func (e *baselineEngine) LLCEvict(now sim.Time, sock *Socket, victim cache.Victim) {
	// Clean victims are dropped silently; the directory's sharer vector
	// remains a (safe) superset.
	if !victim.Dirty {
		return
	}
	// Write the dirty block back to its home and notify the directory
	// (PutX). Off the requesting core's critical path.
	m := e.m
	home := m.home(victim.Block)
	wb := m.sendData(now, sock, home)
	m.homeWrite(wb, home, sock, victim.Block)
	home.dir.Remove(victim.Block)
	m.sendControl(wb, home, sock) // write-back acknowledgement
}
