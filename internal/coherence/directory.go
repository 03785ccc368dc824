package coherence

import (
	"fmt"

	"c3d/internal/addr"
	"c3d/internal/sim"
)

// Entry is one global-directory entry: the stable state of a block plus the
// socket-grain sharing vector. Owner is only meaningful in DirModified and
// names the single socket with write permission.
type Entry struct {
	State   DirState
	Sharers SharerSet
	Owner   int
}

// Owner socket as a sharer set (convenience for invalidation fan-out).
func (e Entry) OwnerSet() SharerSet {
	if e.State != DirModified {
		return 0
	}
	return NewSharerSet(e.Owner)
}

// DirConfig describes one socket's slice of the global directory.
type DirConfig struct {
	// Name identifies the slice in diagnostics, e.g. "gdir0".
	Name string
	// Entries is the capacity of the slice. Zero means unlimited (the
	// idealised full directory of §III-B / the c3d-full-dir design, which the
	// paper models with "no recalls").
	Entries int
	// Ways is the associativity of a bounded directory. Ignored when
	// Entries is zero. Table II models a sparse 2x, 32-way directory.
	Ways int
	// AccessLatency is charged by the protocol engines per directory lookup
	// (10 cycles in Table II). The directory itself does not apply it; it is
	// carried here so machine configuration stays in one place.
	AccessLatency sim.Cycles
}

// DirStats counts directory activity.
type DirStats struct {
	Lookups     uint64
	Hits        uint64
	Misses      uint64
	Allocations uint64
	// Recalls counts entries evicted from a bounded (sparse) directory to
	// make room for a new allocation. Each recall forces invalidation of the
	// tracked copies, which the protocol engine must perform.
	Recalls uint64
	Updates uint64
	Removes uint64
}

// Directory is one socket's slice of the global directory: a mapping from
// block to Entry. With Entries == 0 it behaves as an unbounded full map
// (no recalls); otherwise it is a sparse set-associative structure whose
// evictions the caller must turn into recall invalidations.
type Directory struct {
	cfg   DirConfig
	stats DirStats

	// Unbounded storage.
	unbounded map[addr.Block]Entry

	// Bounded (sparse) storage, as parallel per-way arrays of sets*ways
	// entries, row-major by set. tags holds block+1 (0 = free way) and lru
	// the way's last-use tick, so the tag match and the victim searches scan
	// 8 bytes per way instead of whole entries.
	sets    int
	ways    int
	setMask uint64
	tags    []addr.Block
	lru     []uint64
	entries []Entry
	tick    uint64

	// stale, when set, reports whether a tracked block is no longer cached
	// anywhere, letting the replacement policy victimise stale entries
	// before live ones (see SetStalePredicate).
	stale func(addr.Block) bool
}

// Recall describes an entry evicted from a sparse directory. The protocol
// engine must invalidate the copies it tracks before reusing the slot.
type Recall struct {
	Block addr.Block
	Entry Entry
	Valid bool
}

// NewDirectory builds a directory slice from cfg. It panics on invalid
// bounded geometry.
func NewDirectory(cfg DirConfig) *Directory {
	d := &Directory{cfg: cfg}
	if cfg.Entries <= 0 {
		d.unbounded = make(map[addr.Block]Entry)
		return d
	}
	if cfg.Ways <= 0 {
		panic(fmt.Sprintf("coherence: directory %s: ways must be positive", cfg.Name))
	}
	if cfg.Entries%cfg.Ways != 0 {
		panic(fmt.Sprintf("coherence: directory %s: %d entries not divisible by %d ways", cfg.Name, cfg.Entries, cfg.Ways))
	}
	sets := cfg.Entries / cfg.Ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("coherence: directory %s: number of sets %d must be a power of two", cfg.Name, sets))
	}
	d.sets = sets
	d.ways = cfg.Ways
	d.setMask = uint64(sets - 1)
	d.tags = make([]addr.Block, sets*cfg.Ways)
	d.lru = make([]uint64, sets*cfg.Ways)
	d.entries = make([]Entry, sets*cfg.Ways)
	return d
}

// Config returns the configuration the directory was built with.
func (d *Directory) Config() DirConfig { return d.cfg }

// SetStalePredicate installs a callback that reports whether a tracked block
// has already left every cache covered by this directory. Caches evict clean
// blocks silently, so a sparse directory accumulates entries for blocks that
// are long gone; without help its LRU victim is frequently a *live* entry
// whose recall needlessly invalidates cached data. Real designs mitigate this
// with eviction hints or by probing before recalling — the predicate models
// that ability. A nil predicate (the default) falls back to pure LRU.
func (d *Directory) SetStalePredicate(fn func(addr.Block) bool) { d.stale = fn }

// Unbounded reports whether the directory has unlimited capacity.
func (d *Directory) Unbounded() bool { return d.unbounded != nil }

// Stats returns a snapshot of the activity counters.
func (d *Directory) Stats() DirStats { return d.stats }

// ResetStats clears the activity counters without touching contents.
func (d *Directory) ResetStats() { d.stats = DirStats{} }

// Reset empties the directory and clears its counters, returning it to the
// just-constructed state (used when a machine is reused across runs). The
// stale predicate survives: it is part of the machine's wiring, not of the
// tracked state.
func (d *Directory) Reset() {
	d.stats = DirStats{}
	if d.unbounded != nil {
		clear(d.unbounded)
		return
	}
	clear(d.tags)
	clear(d.lru)
	clear(d.entries)
	d.tick = 0
}

// Lookup returns the entry for block b and whether one exists. A missing
// entry means DirInvalid.
func (d *Directory) Lookup(b addr.Block) (Entry, bool) {
	d.stats.Lookups++
	if d.unbounded != nil {
		e, ok := d.unbounded[b]
		if ok {
			d.stats.Hits++
		} else {
			d.stats.Misses++
		}
		return e, ok
	}
	if i := d.find(b); i >= 0 {
		d.tick++
		d.lru[i] = d.tick
		d.stats.Hits++
		return d.entries[i], true
	}
	d.stats.Misses++
	return Entry{}, false
}

// Probe is like Lookup but does not update LRU order or statistics.
func (d *Directory) Probe(b addr.Block) (Entry, bool) {
	if d.unbounded != nil {
		e, ok := d.unbounded[b]
		return e, ok
	}
	if i := d.find(b); i >= 0 {
		return d.entries[i], true
	}
	return Entry{}, false
}

// Update stores entry for block b, allocating a slot if necessary. If the
// block is absent and the directory is sparse and the set is full, the LRU
// entry is evicted and returned as a recall that the caller must act on.
// Storing an entry in DirInvalid state removes the block instead.
func (d *Directory) Update(b addr.Block, e Entry) Recall {
	if e.State == DirInvalid {
		d.Remove(b)
		return Recall{}
	}
	d.stats.Updates++
	if d.unbounded != nil {
		if _, ok := d.unbounded[b]; !ok {
			d.stats.Allocations++
		}
		d.unbounded[b] = e
		return Recall{}
	}
	// One scan finds b (update in place) or else the set's first free way.
	base := d.setBase(b)
	victim := -1
	for i, tag := range d.tags[base : base+d.ways] {
		switch tag {
		case b + 1:
			d.tick++
			d.entries[base+i] = e
			d.lru[base+i] = d.tick
			return Recall{}
		case 0:
			if victim < 0 {
				victim = base + i
			}
		}
	}
	d.stats.Allocations++
	var recall Recall
	if victim < 0 {
		// Prefer the least recently used *stale* entry (its block has left
		// every cache, so no recall invalidation is needed); fall back to
		// plain LRU when every entry is still live or no predicate is set.
		victim = d.oldestStale(base)
		if victim < 0 {
			victim = base + oldestAfter(d.lru[base:base+d.ways], 0)
			recall = Recall{Block: d.tags[victim] - 1, Entry: d.entries[victim], Valid: true}
			d.stats.Recalls++
		}
	}
	d.tick++
	d.tags[victim] = b + 1
	d.entries[victim] = e
	d.lru[victim] = d.tick
	return recall
}

// oldestStale returns the index of the least recently used entry of the full
// set starting at base whose block the stale predicate reports uncached, or
// -1 when none is (or no predicate is set). It asks the predicate about ways
// in ascending lastUse order and stops at the first stale one: lastUse values
// are unique within a set, so this is the entry an exhaustive scan would
// pick, found after one or two predicate calls instead of one per way. The
// predicate is the expensive part (it probes every LLC), and the repeated
// selection costs only integer compares, so the search makes no assumption
// about Ways.
func (d *Directory) oldestStale(base int) int {
	if d.stale == nil {
		return -1
	}
	lru := d.lru[base : base+d.ways]
	var after uint64
	for range lru {
		i := oldestAfter(lru, after)
		if d.stale(d.tags[base+i] - 1) {
			return base + i
		}
		after = lru[i]
	}
	return -1
}

// oldestAfter returns the index of the smallest lastUse value greater than
// after, in a full set's lru slice whose values are unique and positive
// (after = 0 finds the LRU way). The caller guarantees such a way exists.
func oldestAfter(lru []uint64, after uint64) int {
	best := -1
	for i, u := range lru {
		if u > after && (best < 0 || u < lru[best]) {
			best = i
		}
	}
	return best
}

// Remove deletes the entry for block b if present and reports whether it was
// present.
func (d *Directory) Remove(b addr.Block) bool {
	if d.unbounded != nil {
		if _, ok := d.unbounded[b]; ok {
			delete(d.unbounded, b)
			d.stats.Removes++
			return true
		}
		return false
	}
	if i := d.find(b); i >= 0 {
		d.tags[i] = 0
		d.lru[i] = 0
		d.entries[i] = Entry{}
		d.stats.Removes++
		return true
	}
	return false
}

// Entries returns the number of valid entries currently stored. Intended for
// tests and reporting.
func (d *Directory) Entries() int {
	if d.unbounded != nil {
		return len(d.unbounded)
	}
	n := 0
	for _, tag := range d.tags {
		if tag != 0 {
			n++
		}
	}
	return n
}

// ForEach calls fn for every (block, entry) pair. Iteration order over an
// unbounded directory is unspecified; tests that need determinism should use
// a bounded directory or sort the results.
func (d *Directory) ForEach(fn func(addr.Block, Entry)) {
	if d.unbounded != nil {
		for b, e := range d.unbounded {
			fn(b, e)
		}
		return
	}
	for i, tag := range d.tags {
		if tag != 0 {
			fn(tag-1, d.entries[i])
		}
	}
}

// find returns the index of b's way in a bounded directory's per-way
// arrays, or -1 when b is not tracked.
func (d *Directory) find(b addr.Block) int {
	base := d.setBase(b)
	for i, tag := range d.tags[base : base+d.ways] {
		if tag == b+1 {
			return base + i
		}
	}
	return -1
}

// setBase returns the index of the first way of b's set.
func (d *Directory) setBase(b addr.Block) int {
	// XOR-fold the block number before masking. A home-sliced directory only
	// ever sees blocks whose page-interleave bits match its socket, so using
	// the raw low bits would leave most sets unused; folding higher bits in
	// spreads the tracked blocks across every set.
	h := uint64(b)
	h ^= h >> 8
	h ^= h >> 16
	return int(h&d.setMask) * d.ways
}
