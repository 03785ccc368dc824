package coherence

import (
	"math/rand"
	"testing"
	"testing/quick"

	"c3d/internal/addr"
)

func newUnboundedDir() *Directory {
	return NewDirectory(DirConfig{Name: "test-full"})
}

func newSparseDir(entries, ways int) *Directory {
	return NewDirectory(DirConfig{Name: "test-sparse", Entries: entries, Ways: ways})
}

func TestDirectoryUnboundedBasics(t *testing.T) {
	d := newUnboundedDir()
	if !d.Unbounded() {
		t.Fatal("expected unbounded directory")
	}
	b := addr.Block(42)
	if _, ok := d.Lookup(b); ok {
		t.Fatal("empty directory should miss")
	}
	recall := d.Update(b, Entry{State: DirModified, Owner: 2, Sharers: NewSharerSet(2)})
	if recall.Valid {
		t.Fatal("unbounded directory must never recall")
	}
	e, ok := d.Lookup(b)
	if !ok || e.State != DirModified || e.Owner != 2 {
		t.Fatalf("Lookup = %+v, %v; want Modified owner 2", e, ok)
	}
	if !d.Remove(b) {
		t.Fatal("Remove should report the entry was present")
	}
	if _, ok := d.Lookup(b); ok {
		t.Fatal("entry should be gone after Remove")
	}
	if d.Remove(b) {
		t.Fatal("second Remove should report absence")
	}
}

func TestDirectoryUpdateInvalidRemoves(t *testing.T) {
	d := newUnboundedDir()
	b := addr.Block(7)
	d.Update(b, Entry{State: DirShared, Sharers: NewSharerSet(1)})
	d.Update(b, Entry{State: DirInvalid})
	if _, ok := d.Probe(b); ok {
		t.Fatal("updating to DirInvalid should remove the entry")
	}
}

func TestDirectoryStats(t *testing.T) {
	d := newUnboundedDir()
	b := addr.Block(1)
	d.Lookup(b)
	d.Update(b, Entry{State: DirShared, Sharers: NewSharerSet(0)})
	d.Lookup(b)
	d.Remove(b)
	s := d.Stats()
	if s.Lookups != 2 || s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v; want 2 lookups, 1 hit, 1 miss", s)
	}
	if s.Allocations != 1 || s.Updates != 1 || s.Removes != 1 {
		t.Errorf("stats = %+v; want 1 allocation, 1 update, 1 remove", s)
	}
	d.ResetStats()
	if d.Stats() != (DirStats{}) {
		t.Error("ResetStats did not clear counters")
	}
}

func TestDirectorySparseRecall(t *testing.T) {
	// 1 set x 2 ways: the third distinct block must evict the LRU entry.
	d := newSparseDir(2, 2)
	if d.Unbounded() {
		t.Fatal("expected bounded directory")
	}
	r1 := d.Update(addr.Block(0), Entry{State: DirShared, Sharers: NewSharerSet(0)})
	r2 := d.Update(addr.Block(1), Entry{State: DirShared, Sharers: NewSharerSet(1)})
	if r1.Valid || r2.Valid {
		t.Fatal("filling free ways should not recall")
	}
	// Touch block 0 so block 1 becomes LRU.
	if _, ok := d.Lookup(addr.Block(0)); !ok {
		t.Fatal("block 0 should be present")
	}
	r3 := d.Update(addr.Block(2), Entry{State: DirModified, Owner: 3, Sharers: NewSharerSet(3)})
	if !r3.Valid {
		t.Fatal("full set should force a recall")
	}
	if r3.Block != addr.Block(1) {
		t.Errorf("recalled block = %d, want 1 (the LRU)", r3.Block)
	}
	if d.Stats().Recalls != 1 {
		t.Errorf("Recalls = %d, want 1", d.Stats().Recalls)
	}
	// The new entry must be present, the recalled one absent.
	if _, ok := d.Probe(addr.Block(2)); !ok {
		t.Error("newly allocated entry missing")
	}
	if _, ok := d.Probe(addr.Block(1)); ok {
		t.Error("recalled entry still present")
	}
}

func TestDirectorySparseUpdateInPlace(t *testing.T) {
	d := newSparseDir(2, 2)
	b := addr.Block(5)
	d.Update(b, Entry{State: DirShared, Sharers: NewSharerSet(0)})
	recall := d.Update(b, Entry{State: DirShared, Sharers: NewSharerSet(0, 1)})
	if recall.Valid {
		t.Fatal("in-place update should not recall")
	}
	e, _ := d.Probe(b)
	if e.Sharers != NewSharerSet(0, 1) {
		t.Errorf("sharers = %v, want {0,1}", e.Sharers)
	}
	if d.Entries() != 1 {
		t.Errorf("Entries = %d, want 1", d.Entries())
	}
}

func TestDirectorySetIndexing(t *testing.T) {
	// 4 sets x 1 way: blocks differing in the low 2 bits map to different
	// sets and never evict each other.
	d := newSparseDir(4, 1)
	for b := addr.Block(0); b < 4; b++ {
		if r := d.Update(b, Entry{State: DirShared, Sharers: NewSharerSet(0)}); r.Valid {
			t.Fatalf("block %d should map to its own set", b)
		}
	}
	if d.Entries() != 4 {
		t.Fatalf("Entries = %d, want 4", d.Entries())
	}
	// Block 4 maps to the same set as block 0 and must recall it.
	r := d.Update(addr.Block(4), Entry{State: DirShared, Sharers: NewSharerSet(1)})
	if !r.Valid || r.Block != addr.Block(0) {
		t.Fatalf("recall = %+v, want recall of block 0", r)
	}
}

func TestDirectoryForEach(t *testing.T) {
	d := newSparseDir(8, 2)
	want := map[addr.Block]DirState{
		1: DirShared, 2: DirModified, 3: DirShared,
	}
	d.Update(1, Entry{State: DirShared, Sharers: NewSharerSet(0)})
	d.Update(2, Entry{State: DirModified, Owner: 1, Sharers: NewSharerSet(1)})
	d.Update(3, Entry{State: DirShared, Sharers: NewSharerSet(2)})
	got := map[addr.Block]DirState{}
	d.ForEach(func(b addr.Block, e Entry) { got[b] = e.State })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d entries, want %d", len(got), len(want))
	}
	for b, st := range want {
		if got[b] != st {
			t.Errorf("block %d state = %v, want %v", b, got[b], st)
		}
	}
}

func TestDirectoryInvalidGeometryPanics(t *testing.T) {
	for _, cfg := range []DirConfig{
		{Name: "bad-ways", Entries: 8, Ways: 0},
		{Name: "bad-div", Entries: 7, Ways: 2},
		{Name: "bad-pow2", Entries: 12, Ways: 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewDirectory(%+v) should panic", cfg)
				}
			}()
			NewDirectory(cfg)
		}()
	}
}

// Property: for an unbounded directory, Update followed by Lookup returns the
// stored entry, regardless of the block or entry contents.
func TestDirectoryUpdateLookupProperty(t *testing.T) {
	d := newUnboundedDir()
	f := func(blockRaw uint32, stateRaw uint8, owner uint8, sharersRaw uint64) bool {
		b := addr.Block(blockRaw)
		state := DirState(stateRaw%2) + DirShared // DirShared or DirModified
		e := Entry{State: state, Owner: int(owner % 4), Sharers: SharerSet(sharersRaw & 0xF)}
		d.Update(b, e)
		got, ok := d.Lookup(b)
		return ok && got == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a sparse directory never holds more valid entries than its
// configured capacity, no matter the access pattern.
func TestDirectorySparseCapacityProperty(t *testing.T) {
	f := func(blocks []uint16) bool {
		d := newSparseDir(16, 4)
		for _, raw := range blocks {
			d.Update(addr.Block(raw), Entry{State: DirShared, Sharers: NewSharerSet(int(raw) % 4)})
		}
		return d.Entries() <= 16
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// exhaustiveStaleVictim is the reference replacement choice: the least
// recently used entry among every stale way of a full set, found by asking
// the predicate about every way.
func exhaustiveStaleVictim(tags []addr.Block, lru []uint64, stale func(addr.Block) bool) int {
	best := -1
	for i := range tags {
		if stale(tags[i]-1) && (best < 0 || lru[i] < lru[best]) {
			best = i
		}
	}
	return best
}

// exhaustiveLRUVictim is the reference fallback: the way with the smallest
// lastUse, scanning every way.
func exhaustiveLRUVictim(lru []uint64) int {
	best := 0
	for i := range lru {
		if lru[i] < lru[best] {
			best = i
		}
	}
	return best
}

// The oldest-first stale search must pick exactly the way the exhaustive scan
// picks, at associativities above 64 too, and must stop at the first stale
// way: one predicate call when the LRU way is stale.
func TestDirectoryOldestFirstStaleVictim(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, ways := range []int{2, 32, 64, 96, 200} {
		for trial := 0; trial < 40; trial++ {
			d := newSparseDir(ways, ways) // one set: every block collides
			stale := map[addr.Block]bool{}
			calls := 0
			d.SetStalePredicate(func(b addr.Block) bool { calls++; return stale[b] })

			// Fill the set, then scramble its LRU order with lookups.
			for i := 0; i < ways; i++ {
				d.Update(addr.Block(i), Entry{State: DirShared, Sharers: NewSharerSet(0)})
			}
			for i := 0; i < 3*ways; i++ {
				d.Lookup(addr.Block(rng.Intn(ways)))
			}
			for i := 0; i < ways; i++ {
				if rng.Intn(8) == 0 {
					stale[addr.Block(i)] = true
				}
			}
			tags, lru := d.tags[:ways], d.lru[:ways]
			want := exhaustiveStaleVictim(tags, lru, func(b addr.Block) bool { return stale[b] })
			wantRecall := want < 0
			if want < 0 {
				want = exhaustiveLRUVictim(lru)
			}
			wantBlock := tags[want] - 1
			wantWay := want

			calls = 0
			newBlock := addr.Block(ways + trial)
			recall := d.Update(newBlock, Entry{State: DirShared, Sharers: NewSharerSet(1)})
			if recall.Valid != wantRecall || (wantRecall && recall.Block != wantBlock) {
				t.Fatalf("ways=%d trial=%d: recall %+v, want recall=%v of block %d", ways, trial, recall, wantRecall, wantBlock)
			}
			if _, ok := d.Probe(wantBlock); ok {
				t.Fatalf("ways=%d trial=%d: block %d should have been replaced", ways, trial, wantBlock)
			}
			if _, ok := d.Probe(newBlock); !ok || d.tags[wantWay] != newBlock+1 {
				t.Fatalf("ways=%d trial=%d: new block not installed in way %d", ways, trial, wantWay)
			}
			if wantRecall && calls != ways {
				t.Errorf("ways=%d trial=%d: %d predicate calls with no stale way, want %d", ways, trial, calls, ways)
			}
		}

		// LRU way stale: exactly one predicate call.
		d := newSparseDir(ways, ways)
		for i := 0; i < ways; i++ {
			d.Update(addr.Block(i), Entry{State: DirShared, Sharers: NewSharerSet(0)})
		}
		calls := 0
		d.SetStalePredicate(func(b addr.Block) bool { calls++; return b == 0 })
		if recall := d.Update(addr.Block(ways), Entry{State: DirShared}); recall.Valid {
			t.Errorf("ways=%d: stale LRU way recalled: %+v", ways, recall)
		}
		if calls != 1 {
			t.Errorf("ways=%d: %d predicate calls with a stale LRU way, want 1", ways, calls)
		}
		if _, ok := d.Probe(0); ok {
			t.Errorf("ways=%d: stale LRU block 0 still present", ways)
		}
	}
}

// refLine and refDir are the array-of-structs sparse directory the
// structure-of-arrays one replaced, kept as a reference: each set is a slice
// of whole lines, and a full set asks the stale predicate about every way.
type refLine struct {
	block   addr.Block
	entry   Entry
	valid   bool
	lastUse uint64
}

type refDir struct {
	ways  int
	lines []refLine
	tick  uint64
	stale func(addr.Block) bool
	dir   *Directory // for set indexing only
}

func (r *refDir) set(b addr.Block) []refLine {
	base := r.dir.setBase(b)
	return r.lines[base : base+r.ways]
}

func (r *refDir) lookup(b addr.Block) (Entry, bool) {
	set := r.set(b)
	for i := range set {
		if set[i].valid && set[i].block == b {
			r.tick++
			set[i].lastUse = r.tick
			return set[i].entry, true
		}
	}
	return Entry{}, false
}

func (r *refDir) update(b addr.Block, e Entry) Recall {
	set := r.set(b)
	for i := range set {
		if set[i].valid && set[i].block == b {
			r.tick++
			set[i].entry, set[i].lastUse = e, r.tick
			return Recall{}
		}
	}
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	var recall Recall
	if victim < 0 {
		for i := range set {
			if r.stale(set[i].block) && (victim < 0 || set[i].lastUse < set[victim].lastUse) {
				victim = i
			}
		}
		if victim < 0 {
			victim = 0
			for i := range set {
				if set[i].lastUse < set[victim].lastUse {
					victim = i
				}
			}
			recall = Recall{Block: set[victim].block, Entry: set[victim].entry, Valid: true}
		}
	}
	r.tick++
	set[victim] = refLine{block: b, entry: e, valid: true, lastUse: r.tick}
	return recall
}

func (r *refDir) remove(b addr.Block) bool {
	set := r.set(b)
	for i := range set {
		if set[i].valid && set[i].block == b {
			set[i] = refLine{}
			return true
		}
	}
	return false
}

// Randomized differential test: lookups, updates (with stale-preferring
// recalls), removals and probes on the structure-of-arrays directory return
// exactly what the array-of-structs reference returns, way for way.
func TestDirectoryMatchesArrayOfStructsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, geom := range []struct{ entries, ways int }{{8, 1}, {16, 4}, {64, 32}, {256, 32}, {200, 100}} {
		d := newSparseDir(geom.entries, geom.ways)
		stale := map[addr.Block]bool{}
		pred := func(b addr.Block) bool { return stale[b] }
		d.SetStalePredicate(pred)
		ref := &refDir{ways: geom.ways, lines: make([]refLine, geom.entries), stale: pred, dir: d}
		span := 4 * geom.entries
		for op := 0; op < 20000; op++ {
			b := addr.Block(rng.Intn(span))
			if rng.Intn(4) == 0 {
				b += addr.Block(1) << 50 // far-apart blocks share sets too
			}
			switch rng.Intn(6) {
			case 0, 1:
				e := Entry{State: DirShared, Sharers: SharerSet(rng.Intn(16) + 1)}
				if got, want := d.Update(b, e), ref.update(b, e); got != want {
					t.Fatalf("%+v op %d: Update(%d) = %+v, reference %+v", geom, op, b, got, want)
				}
			case 2, 3:
				ge, gok := d.Lookup(b)
				we, wok := ref.lookup(b)
				if ge != we || gok != wok {
					t.Fatalf("%+v op %d: Lookup(%d) = %+v,%v, reference %+v,%v", geom, op, b, ge, gok, we, wok)
				}
			case 4:
				if got, want := d.Remove(b), ref.remove(b); got != want {
					t.Fatalf("%+v op %d: Remove(%d) = %v, reference %v", geom, op, b, got, want)
				}
			case 5:
				stale[b] = !stale[b]
			}
		}
		for i, l := range ref.lines {
			wantTag := addr.Block(0)
			if l.valid {
				wantTag = l.block + 1
			}
			if d.tags[i] != wantTag || (l.valid && (d.entries[i] != l.entry || d.lru[i] != l.lastUse)) {
				t.Fatalf("%+v: way %d = tag %d entry %+v lru %d, reference %+v", geom, i, d.tags[i], d.entries[i], d.lru[i], l)
			}
		}
	}
}
