package addr

import "math/bits"

// leafPages is the number of consecutive pages one PageMap leaf covers.
const leafPages = 512

// leafShift is log2(leafPages).
const leafShift = 9

// PageMap is a two-level page-indexed table: values live in dense leaves of
// leafPages consecutive pages, found through a small open-addressed
// directory keyed by page >> 9, with a one-entry memo of the last leaf
// touched. Per-page facts the simulator resolves on almost every access (a
// page's NUMA home, its §IV-D class) cost an array index on a leaf hit
// instead of a hash-map probe, and any 64-bit page is accepted, so sparse
// address spaces only pay for the leaves they touch.
//
// There is no presence bit: a value's zero state means "absent", and callers
// encode presence in V (home+1, a known flag). The zero value is an empty
// map ready for use.
type PageMap[V any] struct {
	// keys holds leafIndex+1 (0 = empty slot) and leaves the matching leaf,
	// in a power-of-two, linear-probing table at most half full.
	keys   []uint64
	leaves []*[leafPages]V
	used   int
	shift  uint // 64 - log2(len(keys))
	// spare holds leaves emptied by Clear, reused by Slot before allocating.
	spare []*[leafPages]V
	// memoKey/memoLeaf cache the last leaf found (memoKey 0 = none).
	memoKey  uint64
	memoLeaf *[leafPages]V
}

// leafKey returns the directory key of page p: its leaf index plus one, so
// that zero marks an empty slot for every 64-bit page.
func leafKey(p Page) uint64 { return uint64(p)>>leafShift + 1 }

// slotOf returns the home directory slot of key k: Fibonacci hashing, whose
// top bits spread the consecutive leaf indices of a dense address range over
// the whole table.
func (m *PageMap[V]) slotOf(k uint64) int {
	return int((k * 0x9E3779B97F4A7C15) >> m.shift)
}

// leaf returns the leaf with key k, or nil.
func (m *PageMap[V]) leaf(k uint64) *[leafPages]V {
	if k == m.memoKey {
		return m.memoLeaf
	}
	if len(m.keys) == 0 {
		return nil
	}
	mask := len(m.keys) - 1
	for i := m.slotOf(k); ; i = (i + 1) & mask {
		switch m.keys[i] {
		case k:
			m.memoKey, m.memoLeaf = k, m.leaves[i]
			return m.leaves[i]
		case 0:
			return nil
		}
	}
}

// Get returns a pointer to page p's value, or nil when no page of p's leaf
// has been Slotted since the last Clear. A non-nil result may still point at
// a zero (absent) value.
func (m *PageMap[V]) Get(p Page) *V {
	if l := m.leaf(leafKey(p)); l != nil {
		return &l[uint64(p)&(leafPages-1)]
	}
	return nil
}

// Slot returns a pointer to page p's value, creating p's leaf (zeroed) when
// it does not exist yet. The pointer stays valid until the next Clear.
func (m *PageMap[V]) Slot(p Page) *V {
	k := leafKey(p)
	l := m.leaf(k)
	if l == nil {
		l = m.insert(k)
	}
	return &l[uint64(p)&(leafPages-1)]
}

// insert adds a zeroed leaf under key k, which must be absent.
func (m *PageMap[V]) insert(k uint64) *[leafPages]V {
	if 2*(m.used+1) > len(m.keys) {
		m.grow()
	}
	var l *[leafPages]V
	if n := len(m.spare); n > 0 {
		l, m.spare = m.spare[n-1], m.spare[:n-1]
	} else {
		l = new([leafPages]V)
	}
	m.place(k, l)
	m.used++
	m.memoKey, m.memoLeaf = k, l
	return l
}

// place stores (k, l) in the first empty slot of k's probe sequence.
func (m *PageMap[V]) place(k uint64, l *[leafPages]V) {
	mask := len(m.keys) - 1
	i := m.slotOf(k)
	for m.keys[i] != 0 {
		i = (i + 1) & mask
	}
	m.keys[i], m.leaves[i] = k, l
}

// grow doubles the directory (16 slots at first) and rehashes every leaf.
func (m *PageMap[V]) grow() {
	keys, leaves := m.keys, m.leaves
	n := 2 * len(keys)
	if n == 0 {
		n = 16
	}
	m.keys, m.leaves = make([]uint64, n), make([]*[leafPages]V, n)
	m.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for i, k := range keys {
		if k != 0 {
			m.place(k, leaves[i])
		}
	}
}

// Clear forgets every value. The leaves are zeroed and kept for reuse by
// later Slot calls, so a machine reset and re-run over the same footprint
// allocates nothing.
func (m *PageMap[V]) Clear() {
	for i, k := range m.keys {
		if k != 0 {
			clear(m.leaves[i][:])
			m.spare = append(m.spare, m.leaves[i])
		}
	}
	clear(m.keys)
	clear(m.leaves)
	m.used = 0
	m.memoKey, m.memoLeaf = 0, nil
}
