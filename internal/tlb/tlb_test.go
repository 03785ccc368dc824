package tlb

import (
	"container/list"
	"math/rand"
	"testing"
	"testing/quick"

	"c3d/internal/addr"
)

func TestFirstTouchClassifiesPrivate(t *testing.T) {
	c := NewClassifier()
	res := c.Access(addr.Page(1), 5, 5)
	if !res.FirstTouch || res.Class != ClassPrivate {
		t.Fatalf("first access = %+v; want first touch, private", res)
	}
	if !c.IsPrivateTo(addr.Page(1), 5) {
		t.Error("page should be private to thread 5")
	}
	if c.IsPrivateTo(addr.Page(1), 6) {
		t.Error("page should not be private to thread 6")
	}
	s := c.Stats()
	if s.PrivatePages != 1 || s.SharedPages != 0 {
		t.Errorf("stats = %+v; want 1 private page", s)
	}
}

func TestSameThreadStaysPrivate(t *testing.T) {
	c := NewClassifier()
	p := addr.Page(2)
	c.Access(p, 3, 3)
	res := c.Access(p, 3, 3)
	if res.Class != ClassPrivate || res.Reclassified || res.Shootdown {
		t.Errorf("repeat access by owner = %+v; want private, no events", res)
	}
}

func TestDifferentThreadReclassifiesShared(t *testing.T) {
	c := NewClassifier()
	p := addr.Page(3)
	c.Access(p, 0, 0)
	res := c.Access(p, 1, 1)
	if res.Class != ClassShared || !res.Reclassified {
		t.Fatalf("access by a second thread = %+v; want reclassification to shared", res)
	}
	if res.Shootdown {
		t.Error("private→shared transition must not shoot the page down (§IV-D)")
	}
	s := c.Stats()
	if s.Reclassifications != 1 || s.OwnerFlushes != 1 {
		t.Errorf("stats = %+v; want 1 reclassification with 1 owner flush", s)
	}
	if s.PrivatePages != 0 || s.SharedPages != 1 {
		t.Errorf("stats = %+v; want the page counted as shared", s)
	}
	// The page stays shared forever, even for the original owner.
	if c.Access(p, 0, 0).Class != ClassShared {
		t.Error("page should remain shared")
	}
	if c.IsPrivateTo(p, 0) {
		t.Error("IsPrivateTo should be false after reclassification")
	}
}

func TestThreadMigrationShootsDown(t *testing.T) {
	c := NewClassifier()
	p := addr.Page(4)
	c.Access(p, 7, 0)
	res := c.Access(p, 7, 2) // same thread, different core
	if res.Class != ClassPrivate || !res.Shootdown {
		t.Fatalf("migrated access = %+v; want private with shootdown", res)
	}
	if c.Stats().MigrationShootdowns != 1 {
		t.Errorf("MigrationShootdowns = %d, want 1", c.Stats().MigrationShootdowns)
	}
	// Subsequent accesses from the new core are quiet.
	res = c.Access(p, 7, 2)
	if res.Shootdown {
		t.Error("second access from the new core should not shoot down again")
	}
}

func TestClassifyUnknownPageIsShared(t *testing.T) {
	c := NewClassifier()
	if c.Classify(addr.Page(99)) != ClassShared {
		t.Error("unclassified pages must report shared (conservative)")
	}
}

func TestClassifierResetStatsKeepsState(t *testing.T) {
	c := NewClassifier()
	c.Access(addr.Page(1), 0, 0)
	c.Access(addr.Page(1), 1, 1)
	c.ResetStats()
	s := c.Stats()
	if s.Reclassifications != 0 || s.Accesses != 0 {
		t.Error("ResetStats did not clear event counters")
	}
	if s.SharedPages != 1 {
		t.Error("ResetStats must keep page-class state counts")
	}
	if c.Classify(addr.Page(1)) != ClassShared {
		t.Error("ResetStats must not forget classifications")
	}
}

func TestClassStrings(t *testing.T) {
	if ClassPrivate.String() != "private" || ClassShared.String() != "shared" {
		t.Error("unexpected Class names")
	}
}

func TestTLBHitMissAndLRU(t *testing.T) {
	tl := NewTLB(2)
	if tl.Access(addr.Page(1)) {
		t.Fatal("cold TLB should miss")
	}
	if !tl.Access(addr.Page(1)) {
		t.Fatal("second access should hit")
	}
	tl.Access(addr.Page(2))
	tl.Access(addr.Page(1)) // make page 2 the LRU
	tl.Access(addr.Page(3)) // evicts page 2
	if tl.Access(addr.Page(2)) {
		t.Error("evicted page should miss")
	}
	if tl.Size() > tl.Capacity() {
		t.Errorf("TLB holds %d entries, capacity %d", tl.Size(), tl.Capacity())
	}
	s := tl.Stats()
	if s.Hits != 2 {
		t.Errorf("Hits = %d, want 2", s.Hits)
	}
	if s.MissRate() <= 0 || s.MissRate() >= 1 {
		t.Errorf("MissRate = %.2f, want in (0,1)", s.MissRate())
	}
}

func TestTLBInvalidate(t *testing.T) {
	tl := NewTLB(4)
	tl.Access(addr.Page(1))
	if !tl.Invalidate(addr.Page(1)) {
		t.Error("Invalidate should report the page was present")
	}
	if tl.Invalidate(addr.Page(1)) {
		t.Error("second Invalidate should report absence")
	}
}

func TestTLBDefaultCapacity(t *testing.T) {
	if NewTLB(0).Capacity() != 64 {
		t.Error("default TLB capacity should be 64")
	}
}

func TestTLBMissRateZeroWhenUnused(t *testing.T) {
	var s TLBStats
	if s.MissRate() != 0 {
		t.Error("MissRate of an unused TLB should be 0")
	}
}

// Property: a page accessed by at least two distinct threads is always
// classified shared, and a page accessed by exactly one thread from one core
// is always private to that thread.
func TestClassificationProperty(t *testing.T) {
	f := func(pageRaw uint16, threadsRaw []uint8) bool {
		if len(threadsRaw) == 0 {
			return true
		}
		c := NewClassifier()
		p := addr.Page(pageRaw)
		distinct := map[int]bool{}
		for _, tr := range threadsRaw {
			thread := int(tr % 8)
			distinct[thread] = true
			c.Access(p, thread, thread)
		}
		if len(distinct) >= 2 {
			return c.Classify(p) == ClassShared
		}
		for thread := range distinct {
			return c.IsPrivateTo(p, thread)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the TLB never exceeds its capacity.
func TestTLBCapacityProperty(t *testing.T) {
	f := func(pages []uint16) bool {
		tl := NewTLB(8)
		for _, p := range pages {
			tl.Access(addr.Page(p))
		}
		return tl.Size() <= 8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refTLB is the map-plus-list LRU the open-addressed index replaced, kept as
// the reference for the differential test below.
type refTLB struct {
	capacity int
	lru      *list.List // front = most recently used
	pages    map[addr.Page]*list.Element
}

func newRefTLB(capacity int) *refTLB {
	return &refTLB{capacity: capacity, lru: list.New(), pages: map[addr.Page]*list.Element{}}
}

func (r *refTLB) access(p addr.Page) bool {
	if e, ok := r.pages[p]; ok {
		r.lru.MoveToFront(e)
		return true
	}
	if r.lru.Len() >= r.capacity {
		delete(r.pages, r.lru.Remove(r.lru.Back()).(addr.Page))
	}
	r.pages[p] = r.lru.PushFront(p)
	return false
}

func (r *refTLB) invalidate(p addr.Page) bool {
	e, ok := r.pages[p]
	if ok {
		r.lru.Remove(e)
		delete(r.pages, p)
	}
	return ok
}

// Randomized differential test: the TLB and the map-plus-list reference give
// the same hit/miss sequence, Invalidate answers and Size under a mix of hot
// pages, streaming misses, far-apart pages and shootdowns, across Reset.
func TestTLBMatchesMapListReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, capacity := range []int{1, 64, 100} {
		tl := NewTLB(capacity)
		for round := 0; round < 3; round++ {
			ref := newRefTLB(capacity)
			var hits, misses uint64
			for op := 0; op < 30000; op++ {
				var p addr.Page
				switch rng.Intn(4) {
				case 0: // a hot set a little larger than the TLB
					p = addr.Page(rng.Intn(capacity + capacity/4 + 2))
				case 1: // streaming
					p = addr.Page(op)
				case 2: // far-apart pages that collide in the low bits
					p = addr.Page(rng.Intn(8))<<40 | addr.Page(rng.Intn(4))<<20
				default:
					p = addr.Page(rng.Intn(4 * capacity))
				}
				if rng.Intn(10) == 0 {
					if got, want := tl.Invalidate(p), ref.invalidate(p); got != want {
						t.Fatalf("cap %d round %d op %d: Invalidate(%d) = %v, reference %v", capacity, round, op, p, got, want)
					}
				} else {
					got, want := tl.Access(p), ref.access(p)
					if got != want {
						t.Fatalf("cap %d round %d op %d: Access(%d) = %v, reference %v", capacity, round, op, p, got, want)
					}
					if got {
						hits++
					} else {
						misses++
					}
				}
				if tl.Size() != ref.lru.Len() {
					t.Fatalf("cap %d round %d op %d: Size = %d, reference %d", capacity, round, op, tl.Size(), ref.lru.Len())
				}
			}
			if s := tl.Stats(); s.Hits != hits || s.Misses != misses {
				t.Fatalf("cap %d round %d: stats %+v, want %d hits %d misses", capacity, round, s, hits, misses)
			}
			tl.Reset()
			if tl.Size() != 0 || tl.Stats() != (TLBStats{}) {
				t.Fatalf("cap %d: Reset left size %d stats %+v", capacity, tl.Size(), tl.Stats())
			}
		}
	}
}

// BenchmarkTLBAccess guards the per-access hot path: hits and steady-state
// capacity misses must not allocate (the node slab is preallocated and the
// evicted LRU node is recycled in place).
func BenchmarkTLBAccess(b *testing.B) {
	b.ReportAllocs()
	tlb := NewTLB(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tlb.Access(addr.Page(i % 256))
	}
}
