package cache

import (
	"testing"
	"unsafe"

	"c3d/internal/addr"
)

// The presence bits live in what was the struct's padding: set scans dominate
// the simulator's profile, so Line must stay four to a host cache line.
func TestLineStaysSixteenBytes(t *testing.T) {
	if got := unsafe.Sizeof(Line{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(Line{}) = %d, want 16", got)
	}
}

func TestPresenceOfAliasesModuloWidth(t *testing.T) {
	for i := 0; i < 3*PresenceBits; i++ {
		p := PresenceOf(i)
		if !p.Has(i) || !p.Has(i%PresenceBits) || p.Has(i+1) {
			t.Errorf("PresenceOf(%d) = %08b", i, p)
		}
	}
}

// Fill and Touch* add presence bits to a present line, start a new line with
// exactly the given bits, and every eviction path hands the bits back.
func TestPresenceTravelsWithTheLine(t *testing.T) {
	c := small() // 8 sets x 2 ways
	b0, b1, b2 := addr.Block(0), addr.Block(8), addr.Block(16)

	c.Fill(b0, stS, false, PresenceOf(1))
	c.Fill(b0, stS, false, PresenceOf(3))
	if l, _ := c.Probe(b0); l.Presence != PresenceOf(1)|PresenceOf(3) {
		t.Errorf("refill presence = %08b, want bits 1 and 3", l.Presence)
	}
	if _, hit := c.Touch(b1, stS, PresenceOf(2)); hit {
		t.Fatal("Touch of an absent block hit")
	}
	if _, hit := c.TouchDirty(b1, stM, PresenceOf(5)); !hit {
		t.Fatal("TouchDirty of a present block missed")
	}
	if l, _ := c.Probe(b1); l.Presence != PresenceOf(2)|PresenceOf(5) || !l.Dirty || l.State != stM {
		t.Errorf("touched line = %+v, want Modified, dirty, bits 2 and 5", *l)
	}

	// b0 is LRU: the fill of b2 evicts it with its bits.
	if v := c.Fill(b2, stS, false, 0); !v.Valid || v.Block != b0 || v.Presence != PresenceOf(1)|PresenceOf(3) {
		t.Errorf("Fill victim = %+v, want b0 with bits 1 and 3", v)
	}
	if v := c.Invalidate(b1); v.Presence != PresenceOf(2)|PresenceOf(5) {
		t.Errorf("Invalidate victim = %+v, want bits 2 and 5", v)
	}
	c.Touch(b0, stS, PresenceOf(7))
	if v, _ := c.TouchDirty(b1, stM, 0); !v.Valid || v.Block != b2 || v.Presence != 0 {
		t.Errorf("TouchDirty victim = %+v, want b2 with no bits", v)
	}
	if l, _ := c.Probe(b0); l.Presence != PresenceOf(7) {
		t.Errorf("reinstalled line presence = %08b, want only bit 7 (bits must not outlive an eviction)", l.Presence)
	}
}
