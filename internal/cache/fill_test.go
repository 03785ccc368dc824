package cache

import (
	"math/rand"
	"slices"
	"testing"

	"c3d/internal/addr"
)

// threePassFill is Fill as three separate scans of the set — hit, then first
// free way, then LRU way — kept as the reference for the one-pass Fill. It
// mutates set with the given timestamp and returns the victim.
func threePassFill(set []Line, b addr.Block, st State, dirty bool, p Presence, tick uint32) Victim {
	for i := range set {
		if set[i].valid && set[i].Block == b {
			set[i].State = st
			set[i].Dirty = set[i].Dirty || dirty
			set[i].Presence |= p
			set[i].lastUse = tick
			return Victim{}
		}
	}
	victimIdx := -1
	for i := range set {
		if !set[i].valid {
			victimIdx = i
			break
		}
	}
	var victim Victim
	if victimIdx < 0 {
		victimIdx = 0
		for i := 1; i < len(set); i++ {
			if set[i].lastUse < set[victimIdx].lastUse {
				victimIdx = i
			}
		}
		victim = victimOf(set[victimIdx])
	}
	set[victimIdx] = Line{Block: b, State: st, Dirty: dirty, valid: true, Presence: p, lastUse: tick}
	return victim
}

// checkFill runs Fill on c and the three-pass reference on a copy of b's
// set, and requires the same victim and the same set contents afterwards.
func checkFill(t *testing.T, c *Cache, b addr.Block, st State, dirty bool, p Presence) {
	t.Helper()
	want := slices.Clone(c.set(b))
	wantVictim := threePassFill(want, b, st, dirty, p, c.tick+1)
	if got := c.Fill(b, st, dirty, p); got != wantVictim {
		t.Fatalf("Fill(%d) victim = %+v, three-pass reference %+v", b, got, wantVictim)
	}
	if got := c.set(b); !slices.Equal(got, want) {
		t.Fatalf("Fill(%d) left set %+v, three-pass reference %+v", b, got, want)
	}
}

func TestFillMatchesThreePassScan(t *testing.T) {
	// One 4-way set, so every block collides.
	c := New(Config{Name: "one-set", SizeBytes: 4 * 64, Ways: 4})

	// Invalid ways in mid-set: fill all four, then invalidate ways 1 and 2.
	for b := addr.Block(0); b < 4; b++ {
		checkFill(t, c, b, stS, false, PresenceOf(int(b)))
	}
	c.Invalidate(1)
	c.Invalidate(2)
	checkFill(t, c, 10, stM, true, 0) // takes way 1, not the LRU way 0
	checkFill(t, c, 11, stS, false, 0)
	// All-valid set: evicts the LRU line (block 0, filled first).
	checkFill(t, c, 12, stS, false, 0)
	// Refill of a present block: updated in place, dirty bit sticky,
	// presence bits OR-ed.
	checkFill(t, c, 10, stS, false, PresenceOf(5))
	checkFill(t, c, 3, stM, true, PresenceOf(2))

	// Random mix on a small multi-set cache.
	rng := rand.New(rand.NewSource(4))
	c = New(Config{Name: "rand", SizeBytes: 4 * 8 * 64, Ways: 8})
	for op := 0; op < 20000; op++ {
		b := addr.Block(rng.Intn(96))
		switch rng.Intn(5) {
		case 0:
			c.Invalidate(b)
		case 1:
			c.Lookup(b)
		default:
			checkFill(t, c, b, State(1+rng.Intn(2)), rng.Intn(3) == 0, PresenceOf(rng.Intn(8)))
		}
	}
}
