package addr

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// pageMapChecker drives a PageMap and a plain map reference through the same
// Slot/Get/Clear operations. The reference holds every value ever written
// since the last Clear; a page absent from it must read as nil or zero.
type pageMapChecker struct {
	tb  testing.TB
	m   PageMap[uint32]
	ref map[Page]uint32
}

func newPageMapChecker(tb testing.TB) *pageMapChecker {
	return &pageMapChecker{tb: tb, ref: map[Page]uint32{}}
}

func (c *pageMapChecker) set(p Page, v uint32) {
	c.tb.Helper()
	if got, want := *c.m.Slot(p), c.ref[p]; got != want {
		c.tb.Fatalf("Slot(%#x) before writing = %d, reference %d", uint64(p), got, want)
	}
	*c.m.Slot(p) = v
	c.ref[p] = v
}

func (c *pageMapChecker) get(p Page) {
	c.tb.Helper()
	var got uint32
	if v := c.m.Get(p); v != nil {
		got = *v
	}
	if want := c.ref[p]; got != want {
		c.tb.Fatalf("Get(%#x) = %d, reference %d", uint64(p), got, want)
	}
}

func (c *pageMapChecker) clear() {
	c.m.Clear()
	clear(c.ref)
}

// verify re-reads every page the reference knows.
func (c *pageMapChecker) verify() {
	c.tb.Helper()
	for p := range c.ref {
		c.get(p)
	}
}

// edgePages are pages at the ends of the 64-bit page space and ±1 around
// leaf boundaries, where a two-level table's index arithmetic can go wrong.
func edgePages() []Page {
	pages := []Page{0, 1, 1<<52 - 1, 1<<52 - 2, 1 << 52, ^Page(0), ^Page(0) - 1, ^Page(0) - leafPages}
	for _, base := range []Page{leafPages, 2 * leafPages, 7 * leafPages, 1 << 35, 1<<52 - leafPages} {
		pages = append(pages, base-1, base, base+1)
	}
	return pages
}

func TestPageMapMatchesMapReference(t *testing.T) {
	c := newPageMapChecker(t)
	for i, p := range edgePages() {
		c.get(p)
		c.set(p, uint32(i)+1)
	}
	c.verify()

	rng := rand.New(rand.NewSource(5))
	randomPage := func() Page {
		switch rng.Intn(4) {
		case 0: // dense region: many pages per leaf
			return Page(rng.Intn(8 * leafPages))
		case 1: // far away, still clustered
			return 1<<40 + Page(rng.Intn(4*leafPages))
		case 2: // anywhere in the 64-bit page space
			return Page(rng.Uint64())
		default: // near a leaf boundary
			return Page(rng.Intn(64))*leafPages + Page(rng.Intn(3)) - 1
		}
	}
	for round := 0; round < 3; round++ {
		for op := 0; op < 20000; op++ {
			p := randomPage()
			if rng.Intn(3) == 0 {
				c.set(p, rng.Uint32())
			} else {
				c.get(p)
			}
		}
		c.verify()
		for _, p := range edgePages() {
			c.get(p)
		}
		// Clear, then reuse: every value reads zero again and the leaves
		// come back for the next round's writes.
		c.clear()
		for _, p := range edgePages() {
			c.get(p)
		}
	}
}

// Clear keeps its leaves: refilling the same footprint allocates nothing.
func TestPageMapClearReusesLeaves(t *testing.T) {
	var m PageMap[int32]
	fill := func() {
		for p := Page(0); p < 16*leafPages; p += 7 {
			*m.Slot(p) = int32(p) + 1
		}
	}
	fill()
	m.Clear()
	if v := m.Get(3 * leafPages); v != nil {
		t.Fatalf("Get after Clear = %d, want nil", *v)
	}
	if allocs := testing.AllocsPerRun(5, func() { fill(); m.Clear() }); allocs != 0 {
		t.Errorf("refill after Clear allocates %.0f times, want 0", allocs)
	}
}

// FuzzPageMap runs an arbitrary sequence of Slot/Get/Clear operations
// against the map reference. Each 9-byte record is one operation: a kind
// byte and a little-endian page, so the fuzzer controls every page bit.
func FuzzPageMap(f *testing.F) {
	seed := func(ops ...uint64) []byte {
		var b []byte
		for i, p := range ops {
			b = append(b, byte(i))
			b = binary.LittleEndian.AppendUint64(b, p)
		}
		return b
	}
	f.Add(seed(0, 1, leafPages-1, leafPages, 1<<52-1, ^uint64(0)))
	f.Add(seed(1<<35-1, 1<<35, 5, 1<<35+1, 0, 2))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := newPageMapChecker(t)
		for len(data) >= 9 {
			kind, p := data[0], Page(binary.LittleEndian.Uint64(data[1:9]))
			data = data[9:]
			switch kind % 8 {
			case 0, 1, 2:
				c.set(p, uint32(kind)+1)
			case 7:
				c.clear()
			default:
				c.get(p)
			}
		}
		c.verify()
	})
}
