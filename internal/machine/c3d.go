package machine

import (
	"fmt"

	"c3d/internal/addr"
	"c3d/internal/cache"
	"c3d/internal/core"
	"c3d/internal/sim"
)

// c3dEngine implements the proposed design (§IV) and, when the socket
// directories are built with TrackDRAMCache, the idealised c3d-full-dir
// variant of §V-A. Its defining behaviours:
//
//   - DRAM caches are clean: LLC dirty evictions are written through to
//     memory while a clean copy is retained locally, so no remote DRAM cache
//     can ever hold the only valid copy of a block.
//   - Read misses therefore never probe a remote DRAM cache: they are served
//     by the home memory or, for blocks Modified on-chip elsewhere, by the
//     owning socket's LLC.
//   - The global directory is non-inclusive: it does not track blocks that
//     live only in DRAM caches. Writes to untracked blocks broadcast
//     invalidations to all DRAM caches — off the critical path, filtered for
//     thread-private pages when the §IV-D classifier is enabled.
type c3dEngine struct {
	m *Machine
}

func init() {
	RegisterDesign(DesignSpec{
		Name:             C3D,
		Description:      "clean private DRAM caches plus a non-inclusive directory with broadcast invalidations (§IV)",
		Rank:             3,
		Evaluated:        true,
		HasDRAMCache:     true,
		PrivateDRAMCache: true,
		CleanDRAMCache:   true,
		NewEngine:        func(m *Machine) Engine { return &c3dEngine{m: m} },
		NewDirectories: func(id int, cfg Config) SocketDirectories {
			return SocketDirectories{C3D: core.NewDirectory(core.DirConfig{
				Name:    fmt.Sprintf("gdir.%d", id),
				Sockets: cfg.Sockets,
				Entries: cfg.DirEntries(),
				Ways:    cfg.DirWays,
			})}
		},
	})
	RegisterDesign(DesignSpec{
		Name:             C3DFullDir,
		Description:      "C3D with an idealised full directory that also tracks DRAM cache blocks (§V-A)",
		Rank:             4,
		Evaluated:        true,
		HasDRAMCache:     true,
		PrivateDRAMCache: true,
		CleanDRAMCache:   true,
		NewEngine:        func(m *Machine) Engine { return &c3dEngine{m: m} },
		NewDirectories: func(id int, cfg Config) SocketDirectories {
			return SocketDirectories{C3D: core.NewDirectory(core.DirConfig{
				Name:           fmt.Sprintf("gdir.%d", id),
				Sockets:        cfg.Sockets,
				TrackDRAMCache: true,
			})}
		},
	})
}

func (e *c3dEngine) ReadMiss(now sim.Time, sock *Socket, coreID int, b addr.Block) sim.Time {
	m := e.m
	// Fast path: the local (clean) DRAM cache.
	res := sock.dramCache.Access(now, b, false)
	if res.Hit {
		return res.Done
	}
	home := m.home(b)
	t := dirRequestArrival(m, res.Done, sock, home)

	dec := home.c3dDir.HandleGetS(b, sock.id)
	handleRecall(m, t, home, dec.Recall)
	if dec.Source == core.FromOwnerLLC {
		// The only possible Modified copies are on-chip (clean DRAM caches),
		// so the forward always terminates at the owner's LLC — never at a
		// remote DRAM cache. Its write-back keeps memory up to date, so the
		// directory's Shared invariant holds.
		return m.forwardToOwner(t, home, m.sockets[dec.Owner], sock, b, false)
	}
	// Memory supplies the data; remote DRAM caches are bypassed entirely.
	return m.homeReply(t, home, sock, b, false)
}

func (e *c3dEngine) WriteMiss(now sim.Time, sock *Socket, coreID int, b addr.Block, upgrade bool) sim.Time {
	m := e.m
	// The local DRAM cache can supply the data (it is clean, so memory holds
	// the same bytes); permission still comes from the home directory.
	res := sock.dramCache.Access(now, b, true)
	home := m.home(b)
	t := dirRequestArrival(m, res.Done, sock, home)

	pagePrivate := m.filter.PagePrivate(b, coreID)
	dec := home.c3dDir.HandleGetX(b, sock.id, upgrade, pagePrivate)
	handleRecall(m, t, home, dec.Recall)

	if dec.Source == core.FromOwnerLLC {
		// Ownership transfer from the previous owner's on-chip hierarchy;
		// its whole hierarchy (DRAM cache included) is invalidated.
		owner := m.sockets[dec.Owner]
		done := m.forwardToOwner(t, home, owner, sock, b, true)
		owner.dramCache.Invalidate(b)
		return done
	}
	// A tracked block (or an untracked block of a private page) gets precise
	// invalidations to the recorded sharers, which may be none. An untracked
	// block is broadcast to every other socket's DRAM cache (and any on-chip
	// Shared copies). Either way the invalidations are acknowledged to the
	// requester; stores are off the critical path, so the extra latency is
	// usually hidden by the store queue (§IV-B).
	targets := dec.Invalidate
	if dec.Broadcast {
		targets = m.everySocket.Others(sock.id)
	}
	acks := m.invalidateSharers(t, home, sock, targets, b, true)
	return sim.Max(m.homeReply(t, home, sock, b, upgrade || res.Hit), acks)
}

func (e *c3dEngine) LLCEvict(now sim.Time, sock *Socket, victim cache.Victim) {
	m := e.m
	action := core.CleanLLCEviction(victim.State, victim.Dirty)
	if action.WriteToMemory {
		// Write-through: memory stays up to date (the clean property). Off
		// the requesting core's critical path.
		home := m.home(victim.Block)
		wb := m.sendData(now, sock, home)
		m.memWrite(wb, home, sock, victim.Block)
		if action.NotifyDirectory {
			home.c3dDir.HandlePutX(victim.Block, sock.id)
			m.sendControl(wb, home, sock) // write-back acknowledgement
		}
	}
	if action.FillLocalDRAMCache {
		// Victim-cache fill; always clean. DRAM-cache victims are silently
		// dropped (they are clean by construction).
		sock.dramCache.Fill(now, victim.Block, victim.State, false)
	}
}
