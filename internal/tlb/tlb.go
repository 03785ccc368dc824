// Package tlb implements the private/shared page classification mechanism of
// §IV-D of the C3D paper. Page table entries are extended with the owner
// thread's id and a classification bit; the OS maintains them on TLB misses:
//
//   - first access: the page is marked private and the accessing thread
//     becomes its owner;
//   - a later access by a different thread re-classifies the page as shared
//     (the owner is trapped so pending writes are flushed, but the page does
//     not have to be shot down);
//   - an access by the same thread from a different core (thread migration)
//     keeps the page private but updates the owner core and shoots the page
//     down from the memory hierarchy.
//
// C3D consults the classification on write misses: a GetX for a block of a
// private page can skip the broadcast invalidation of remote DRAM caches,
// because no other thread can have cached it.
//
// Each core also has a small TLB that caches classifications so the
// experiments can report TLB miss rates; classification decisions themselves
// live in the shared Classifier (the simulated OS page table extension).
package tlb

import (
	"fmt"
	"math/bits"

	"c3d/internal/addr"
)

// Class is a page's sharing classification.
type Class uint8

const (
	// ClassPrivate means only the owner thread has accessed the page.
	ClassPrivate Class = iota
	// ClassShared means at least two distinct threads have accessed the
	// page.
	ClassShared
)

func (c Class) String() string {
	switch c {
	case ClassPrivate:
		return "private"
	case ClassShared:
		return "shared"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// ClassifierStats counts classification activity.
type ClassifierStats struct {
	// PrivatePages and SharedPages are the current counts per class.
	PrivatePages uint64
	SharedPages  uint64
	// Reclassifications counts private→shared transitions.
	Reclassifications uint64
	// OwnerFlushes counts the traps of the owning thread performed during a
	// private→shared transition to flush its pending writes.
	OwnerFlushes uint64
	// MigrationShootdowns counts pages shot down from the hierarchy because
	// the owning thread migrated to a different core.
	MigrationShootdowns uint64
	// Accesses counts classification queries.
	Accesses uint64
}

type pageClass struct {
	// known marks a classified page; the zero value is an unclassified one.
	known bool
	class Class
	// ownerThread is the thread id that first touched the page.
	ownerThread int32
	// ownerCore is the core the owner thread was last seen on.
	ownerCore int32
}

// Classifier is the OS-level page classification table (the page-table
// extension of §IV-D). The table is consulted on every simulated access, so
// it is a page-indexed table of values rather than a hash map.
type Classifier struct {
	pages addr.PageMap[pageClass]
	stats ClassifierStats
}

// NewClassifier builds an empty classifier.
func NewClassifier() *Classifier { return &Classifier{} }

// Stats returns a snapshot of the counters.
func (c *Classifier) Stats() ClassifierStats { return c.stats }

// ResetStats clears event counters but keeps current page classifications and
// the page counts per class (which describe state, not events).
func (c *Classifier) ResetStats() {
	c.stats.Reclassifications = 0
	c.stats.OwnerFlushes = 0
	c.stats.MigrationShootdowns = 0
	c.stats.Accesses = 0
}

// Reset forgets every page classification and clears all counters, returning
// the classifier to the just-constructed state (used when a machine is reused
// across runs).
func (c *Classifier) Reset() {
	c.pages.Clear()
	c.stats = ClassifierStats{}
}

// AccessResult describes what happened on a classification query.
type AccessResult struct {
	Class Class
	// FirstTouch reports that the page was previously unclassified.
	FirstTouch bool
	// Reclassified reports a private→shared transition caused by this
	// access.
	Reclassified bool
	// Shootdown reports that the page had to be shot down because the owner
	// thread migrated cores.
	Shootdown bool
}

// Access classifies an access to page p by the given thread running on the
// given core and returns the resulting classification. It implements the OS
// TLB-miss handler behaviour described in §IV-D.
func (c *Classifier) Access(p addr.Page, thread, core int) AccessResult {
	c.stats.Accesses++
	e := c.pages.Slot(p)
	if !e.known {
		*e = pageClass{known: true, class: ClassPrivate, ownerThread: int32(thread), ownerCore: int32(core)}
		c.stats.PrivatePages++
		return AccessResult{Class: ClassPrivate, FirstTouch: true}
	}
	if e.class == ClassShared {
		return AccessResult{Class: ClassShared}
	}
	// Private page.
	if int(e.ownerThread) == thread {
		if int(e.ownerCore) != core {
			// Thread migration: keep the page private, move ownership to the
			// new core and shoot the page down from the hierarchy.
			e.ownerCore = int32(core)
			c.stats.MigrationShootdowns++
			return AccessResult{Class: ClassPrivate, Shootdown: true}
		}
		return AccessResult{Class: ClassPrivate}
	}
	// A different thread: active sharing. Re-classify; the owner is trapped
	// so its pending writes to the page are flushed, but the page is not shot
	// down.
	e.class = ClassShared
	c.stats.PrivatePages--
	c.stats.SharedPages++
	c.stats.Reclassifications++
	c.stats.OwnerFlushes++
	return AccessResult{Class: ClassShared, Reclassified: true}
}

// Classify returns the current classification of page p without recording an
// access. Unclassified pages report ClassShared (the conservative answer: a
// broadcast will be sent even though it may not be needed).
func (c *Classifier) Classify(p addr.Page) Class {
	if e := c.pages.Get(p); e != nil && e.known {
		return e.class
	}
	return ClassShared
}

// IsPrivateTo reports whether page p is currently classified private and
// owned by the given thread. This is the exact predicate the C3D directory
// uses to elide a broadcast on a GetX carrying the private bit.
func (c *Classifier) IsPrivateTo(p addr.Page, thread int) bool {
	e := c.pages.Get(p)
	return e != nil && e.known && e.class == ClassPrivate && int(e.ownerThread) == thread
}

// Pages returns the number of classified pages.
func (c *Classifier) Pages() int { return int(c.stats.PrivatePages + c.stats.SharedPages) }

// TLBStats counts per-core TLB activity.
type TLBStats struct {
	Hits   uint64
	Misses uint64
}

// MissRate returns misses/(hits+misses), or 0 when never accessed.
func (s TLBStats) MissRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Misses) / float64(total)
}

// TLB is one core's translation lookaside buffer, modelled as a
// fully-associative LRU array of page entries caching the classification bit.
// Capacity-induced misses are what trigger the OS handler in real hardware;
// here they are counted for reporting while classification correctness is
// delegated to the shared Classifier.
//
// The implementation keeps an intrusive doubly-linked LRU list indexed by an
// open-addressed hash table, so lookups and replacements are O(1) and
// allocation-free — the TLB sits on the simulator's per-access hot path.
type TLB struct {
	capacity int
	// keys and nodes form the index: a power-of-two linear-probing table of
	// at least twice the capacity (and 4) slots, holding page+1 (0 = empty slot; pages are
	// addresses shifted right by PageShift, so page+1 never wraps) and the
	// page's list node. Deletion shifts later entries of the probe run back,
	// so no tombstones accumulate.
	keys  []uint64
	nodes []*tlbNode
	shift uint // 64 - log2(len(keys))
	size  int
	head  *tlbNode // most recently used
	tail  *tlbNode // least recently used
	// slab preallocates every node the TLB can ever hold; free chains nodes
	// returned by Invalidate. Steady-state misses therefore allocate nothing:
	// a full TLB recycles the evicted LRU node in place.
	slab  []tlbNode
	used  int
	free  *tlbNode
	stats TLBStats
}

type tlbNode struct {
	page       addr.Page
	prev, next *tlbNode
}

// allocNode takes a node from the free-list or the slab; the caller
// guarantees capacity (it evicts before calling when full).
func (t *TLB) allocNode() *tlbNode {
	if n := t.free; n != nil {
		t.free = n.next
		n.next = nil
		return n
	}
	n := &t.slab[t.used]
	t.used++
	return n
}

func (t *TLB) freeNode(n *tlbNode) {
	n.prev = nil
	n.next = t.free
	t.free = n
}

// NewTLB builds a TLB with the given number of entries (a typical 64-entry
// second-level data TLB if zero or negative).
func NewTLB(capacity int) *TLB {
	if capacity <= 0 {
		capacity = 64
	}
	// At least twice the capacity, and never full: Access briefly holds
	// capacity+1 keys.
	slots := 4
	for slots < 2*capacity {
		slots *= 2
	}
	return &TLB{
		capacity: capacity,
		keys:     make([]uint64, slots),
		nodes:    make([]*tlbNode, slots),
		shift:    uint(64 - bits.TrailingZeros(uint(slots))),
		slab:     make([]tlbNode, capacity),
	}
}

// Capacity returns the TLB's entry count.
func (t *TLB) Capacity() int { return t.capacity }

// Stats returns a snapshot of the hit/miss counters.
func (t *TLB) Stats() TLBStats { return t.stats }

// ResetStats clears the counters without dropping cached translations.
func (t *TLB) ResetStats() { t.stats = TLBStats{} }

// Reset drops every cached translation and clears the counters, returning the
// TLB to the just-constructed state. The slab is zeroed so recycled nodes
// carry no stale list links.
func (t *TLB) Reset() {
	clear(t.keys)
	clear(t.nodes)
	clear(t.slab)
	t.head, t.tail, t.free = nil, nil, nil
	t.size, t.used = 0, 0
	t.stats = TLBStats{}
}

func (t *TLB) unlink(n *tlbNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		t.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		t.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (t *TLB) pushFront(n *tlbNode) {
	n.next = t.head
	if t.head != nil {
		t.head.prev = n
	}
	t.head = n
	if t.tail == nil {
		t.tail = n
	}
}

// home returns the index slot of key k (Fibonacci hashing).
func (t *TLB) home(k uint64) int { return int((k * 0x9E3779B97F4A7C15) >> t.shift) }

// find returns the slot holding page p, or the empty slot ending p's probe
// run and false.
func (t *TLB) find(p addr.Page) (int, bool) {
	k := uint64(p) + 1
	mask := len(t.keys) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		switch t.keys[i] {
		case k:
			return i, true
		case 0:
			return i, false
		}
	}
}

// remove empties slot i and shifts every later entry of its probe run that
// may move back, so each remaining key stays reachable from its home slot.
func (t *TLB) remove(i int) {
	mask := len(t.keys) - 1
	for j := (i + 1) & mask; t.keys[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i only if i lies on its probe
		// path, i.e. no further from j than its home slot is.
		if (j-t.home(t.keys[j]))&mask >= (j-i)&mask {
			t.keys[i], t.nodes[i] = t.keys[j], t.nodes[j]
			i = j
		}
	}
	t.keys[i], t.nodes[i] = 0, nil
	t.size--
}

// Access looks up page p, returning true on a hit. On a miss the page is
// installed, evicting the least recently used entry if the TLB is full.
func (t *TLB) Access(p addr.Page) bool {
	i, ok := t.find(p)
	if ok {
		n := t.nodes[i]
		t.stats.Hits++
		if t.head != n {
			t.unlink(n)
			t.pushFront(n)
		}
		return true
	}
	t.stats.Misses++
	if t.size < t.capacity {
		t.insert(i, p, t.allocNode())
		return false
	}
	// Recycle the evicted LRU node instead of allocating. The index has room
	// for one key beyond capacity, so p goes in first; removing the victim's
	// key afterwards shifts p like any other key of the probe run.
	n := t.tail
	t.unlink(n)
	j, _ := t.find(n.page)
	t.insert(i, p, n)
	t.remove(j)
	return false
}

// insert stores page p with node n in the empty index slot i and makes n the
// most recently used entry.
func (t *TLB) insert(i int, p addr.Page, n *tlbNode) {
	n.page = p
	t.keys[i], t.nodes[i] = uint64(p)+1, n
	t.size++
	t.pushFront(n)
}

// Invalidate removes page p (a shootdown) and reports whether it was present.
func (t *TLB) Invalidate(p addr.Page) bool {
	i, ok := t.find(p)
	if !ok {
		return false
	}
	n := t.nodes[i]
	t.unlink(n)
	t.remove(i)
	t.freeNode(n)
	return true
}

// Size returns the number of resident translations.
func (t *TLB) Size() int { return t.size }
