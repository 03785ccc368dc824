package dramcache

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"c3d/internal/addr"
	"c3d/internal/cache"
	"c3d/internal/coherence"
	"c3d/internal/sim"
)

const testMB = 1 << 20

func newTestCache(t *testing.T, policy Policy) *Cache {
	t.Helper()
	cfg := DefaultConfig("dram$test", 1*testMB, policy)
	return New(cfg)
}

func TestDefaultConfigMatchesTableII(t *testing.T) {
	cfg := DefaultConfig("dram$0", 1<<30, Clean)
	if cfg.AccessLatency != sim.NsToCycles(40) {
		t.Errorf("AccessLatency = %v, want 40ns", cfg.AccessLatency)
	}
	if cfg.Channels != 8 || cfg.ChannelBandwidthGBs != 12.8 {
		t.Errorf("channels = %d @ %.1f GB/s, want 8 @ 12.8", cfg.Channels, cfg.ChannelBandwidthGBs)
	}
	if cfg.PredictorEntries != 4096 {
		t.Errorf("PredictorEntries = %d, want 4096", cfg.PredictorEntries)
	}
	// Direct-mapped: two blocks that share a set evict each other, however
	// empty the rest of the cache is.
	c := New(DefaultConfig("dram$0", 1*testMB, Clean))
	a := addr.Block(5)
	b := a + testMB/addr.BlockBytes
	c.Fill(0, a, coherence.LineShared, false)
	if v := c.Fill(0, b, coherence.LineShared, false).Victim; !v.Valid || v.Block != a {
		t.Fatalf("filling %d evicted %+v, want block %d", b, v, a)
	}
	if resident(c, a) || !resident(c, b) || c.ValidLines() != 1 {
		t.Errorf("after the conflicting fill: a resident %v, b resident %v, %d lines; want only b",
			resident(c, a), resident(c, b), c.ValidLines())
	}
}

// resident reports whether b is in c's tag array, without timing or stats.
func resident(c *Cache, b addr.Block) bool {
	i, key := c.slot(b)
	return c.lines[i]&^metaMask == key
}

func TestNewRejectsBadGeometry(t *testing.T) {
	for _, tc := range []struct {
		name string
		size uint64
		want string
	}{
		{"zero", 0, "not a positive multiple"},
		{"sub-block", addr.BlockBytes / 2, "not a positive multiple"},
		{"ragged", 4*addr.BlockBytes + 8, "not a positive multiple"},
		{"three-lines", 3 * addr.BlockBytes, "not a power of two"},
		{"twelve-lines", 12 * addr.BlockBytes, "not a power of two"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "dram$bad") || !strings.Contains(msg, tc.want) {
					t.Errorf("New(size %d) panicked with %q, want the cache name and %q", tc.size, msg, tc.want)
				}
			}()
			New(DefaultConfig("dram$bad", tc.size, Clean))
		})
	}
	// The smallest legal geometries build.
	for _, lines := range []uint64{1, 2, 4} {
		if got := New(DefaultConfig("ok", lines*addr.BlockBytes, Clean)); len(got.lines) != int(lines) {
			t.Errorf("%d-line cache has %d words", lines, len(got.lines))
		}
	}
}

func TestAccessMissThenHit(t *testing.T) {
	c := newTestCache(t, Clean)
	b := addr.Block(1234)
	res := c.Access(0, b, false)
	if res.Hit {
		t.Fatal("cold cache should miss")
	}
	if res.PredictedHit {
		t.Fatal("cold predictor should predict miss")
	}
	if res.Done != 0 {
		t.Fatalf("correctly predicted miss should not delay the next level, Done = %v", res.Done)
	}
	c.Fill(0, b, coherence.LineShared, false)
	res = c.Access(0, b, false)
	if !res.Hit {
		t.Fatal("filled block should hit")
	}
	if res.Done < sim.Time(c.cfg.AccessLatency) {
		t.Errorf("hit Done = %v, want at least the access latency %v", res.Done, c.cfg.AccessLatency)
	}
	s := c.Stats()
	if s.Reads != 2 || s.ReadHits != 1 {
		t.Errorf("stats = %+v; want 2 reads, 1 read hit", s)
	}
}

func TestFalseHitPaysTagCheck(t *testing.T) {
	c := newTestCache(t, Clean)
	base := addr.Block(0)
	// Fill one block so its page region predicts hit, then access a
	// different block of the same page that is not resident: the miss is
	// discovered only after the DRAM tag check.
	c.Fill(0, base, coherence.LineShared, false)
	res := c.Access(0, base+1, false)
	if res.Hit {
		t.Fatal("block was never filled; must miss")
	}
	if !res.PredictedHit {
		t.Fatal("same-region block should predict hit")
	}
	if res.Done < sim.Time(c.cfg.AccessLatency) {
		t.Errorf("mispredicted miss Done = %v, want at least one access latency", res.Done)
	}
	if c.Stats().Predictor.FalseHits != 1 {
		t.Errorf("FalseHits = %d, want 1", c.Stats().Predictor.FalseHits)
	}
}

func TestCleanPolicyNeverDirty(t *testing.T) {
	c := newTestCache(t, Clean)
	b := addr.Block(7)
	// Even when asked to fill dirty/Modified, a clean cache stores a clean
	// Shared copy.
	c.Fill(0, b, coherence.LineModified, true)
	line, ok, _ := c.Probe(0, b)
	if !ok {
		t.Fatal("block should be resident")
	}
	if line.Dirty {
		t.Error("clean cache stored a dirty line")
	}
	if line.State != coherence.LineShared {
		t.Errorf("state = %v, want Shared", coherence.LineStateName(line.State))
	}
	// Write hits do not mark the line dirty either.
	c.Access(0, b, true)
	if c.HasDirtyBlocks() {
		t.Error("write hit made a clean cache dirty")
	}
}

func TestDirtyPolicyMarksDirty(t *testing.T) {
	c := newTestCache(t, Dirty)
	b := addr.Block(9)
	c.Fill(0, b, coherence.LineShared, false)
	c.Access(0, b, true)
	line, ok, _ := c.Probe(0, b)
	if !ok || !line.Dirty {
		t.Error("write hit under the Dirty policy should mark the line dirty")
	}
	if line.State != coherence.LineModified {
		t.Errorf("state = %v, want Modified", coherence.LineStateName(line.State))
	}
	if !c.HasDirtyBlocks() {
		t.Error("HasDirtyBlocks should report the dirty line")
	}
}

func TestFillEvictionReportsVictim(t *testing.T) {
	// Direct-mapped: two blocks mapping to the same set evict each other.
	cfg := DefaultConfig("tiny", 64*addr.BlockBytes, Dirty) // 64 sets, 1 way
	c := New(cfg)
	a := addr.Block(0)
	b := addr.Block(64) // same set as a
	c.Fill(0, a, coherence.LineModified, true)
	res := c.Fill(0, b, coherence.LineShared, false)
	if !res.Victim.Valid || res.Victim.Block != a {
		t.Fatalf("victim = %+v, want eviction of block %d", res.Victim, a)
	}
	if !res.Victim.Dirty {
		t.Error("dirty victim should be reported dirty so the engine can write it back")
	}
	s := c.Stats()
	if s.Evictions != 1 || s.DirtyEvicts != 1 {
		t.Errorf("stats = %+v; want 1 eviction, 1 dirty", s)
	}
}

func TestInvalidateInformsPredictor(t *testing.T) {
	c := newTestCache(t, Clean)
	b := addr.Block(77)
	c.Fill(0, b, coherence.LineShared, false)
	v := c.Invalidate(b)
	if !v.Valid {
		t.Fatal("Invalidate should report the block was present")
	}
	if resident(c, b) {
		t.Fatal("block still resident after Invalidate")
	}
	// The region no longer predicts hit once its only block is gone.
	res := c.Access(0, b, false)
	if res.PredictedHit {
		t.Error("predictor was not informed of the invalidation")
	}
	if c.Invalidate(b).Valid {
		t.Error("second Invalidate should report absence")
	}
}

func TestProbeDoesNotPerturbStats(t *testing.T) {
	c := newTestCache(t, Clean)
	b := addr.Block(11)
	c.Fill(0, b, coherence.LineShared, false)
	before := c.Stats()
	_, ok, done := c.Probe(0, b)
	if !ok {
		t.Fatal("Probe should find the block")
	}
	if done < sim.Time(c.cfg.AccessLatency) {
		t.Error("Probe should cost a DRAM cache access")
	}
	after := c.Stats()
	if before.Reads != after.Reads || before.Writes != after.Writes ||
		before.Predictor.Predictions != after.Predictor.Predictions {
		t.Error("Probe changed access or predictor statistics")
	}
}

func TestChannelBandwidthQueues(t *testing.T) {
	cfg := DefaultConfig("bw", 1*testMB, Clean)
	cfg.Channels = 1
	cfg.ChannelBandwidthGBs = 0.001 // absurdly slow so queueing is visible
	c := New(cfg)
	b := addr.Block(1)
	c.Fill(0, b, coherence.LineShared, false)
	first := c.Access(0, b, false)
	second := c.Access(0, b, false)
	if second.Done <= first.Done {
		t.Errorf("second access (%v) should queue behind the first (%v)", second.Done, first.Done)
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	c := newTestCache(t, Clean)
	b := addr.Block(5)
	c.Fill(0, b, coherence.LineShared, false)
	c.Access(0, b, false)
	c.ResetStats()
	if c.Stats().Accesses() != 0 {
		t.Error("ResetStats did not clear access counters")
	}
	if !resident(c, b) {
		t.Error("ResetStats evicted cache contents")
	}
}

// Property: under the Clean policy, no sequence of fills and write accesses
// ever leaves a dirty block in the cache.
func TestCleanInvariantProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(DefaultConfig("prop", 256*addr.BlockBytes, Clean))
		for _, op := range ops {
			b := addr.Block(op % 512)
			switch op % 3 {
			case 0:
				c.Fill(0, b, coherence.LineModified, true)
			case 1:
				c.Access(0, b, true)
			case 2:
				c.Access(0, b, false)
			}
		}
		return !c.HasDirtyBlocks()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the number of resident lines never exceeds the capacity in
// blocks.
func TestCapacityProperty(t *testing.T) {
	const capBlocks = 128
	f := func(ops []uint16) bool {
		c := New(DefaultConfig("prop", capBlocks*addr.BlockBytes, Dirty))
		for _, op := range ops {
			c.Fill(0, addr.Block(op), coherence.LineShared, false)
		}
		return c.ValidLines() <= capBlocks
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// BenchmarkAccessHit guards the per-access hot path: a steady-state DRAM
// cache access (predict, tag lookup, channel occupancy) must not allocate.
func BenchmarkAccessHit(b *testing.B) {
	b.ReportAllocs()
	c := New(DefaultConfig("bench", 64*testMB, Clean))
	for i := 0; i < 4096; i++ {
		c.Fill(0, addr.Block(i), coherence.LineShared, false)
	}
	now := sim.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := c.Access(now, addr.Block(i%4096), i%3 == 0)
		now = res.Done
	}
}

// BenchmarkFillChurn guards the fill/evict path of a full direct-mapped
// cache, which exercises predictor updates and victim accounting.
func BenchmarkFillChurn(b *testing.B) {
	b.ReportAllocs()
	c := New(DefaultConfig("bench", 16*testMB, Clean))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Fill(0, addr.Block(i), coherence.LineShared, false)
	}
}

// BenchmarkWarmChurn guards the functional-warming path sampled simulation
// spends its fast-forward in: random Warm and WarmInvalidate calls over a
// 16 MiB cache, so most probes land on a host-cache-cold tag word. It must
// not allocate.
func BenchmarkWarmChurn(b *testing.B) {
	b.ReportAllocs()
	c := New(DefaultConfig("bench", 16*testMB, Dirty))
	rng := rand.New(rand.NewSource(1))
	blocks := make([]addr.Block, 1<<16)
	for i := range blocks {
		blocks[i] = addr.Block(rng.Int63n(1 << 24))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := blocks[i&(len(blocks)-1)]
		if i%4 == 3 {
			c.WarmInvalidate(blk)
		} else {
			c.Warm(blk, coherence.LineShared, i%4 == 2)
		}
	}
}

// refCache is the DRAM cache as it was built before the packed tag array: a
// direct-mapped instance of the generic cache.Cache, with the same
// predictor, channels and counters. It is kept here only as the reference
// the packed cache must match; it has no presence filter, which the packed
// cache's one-sided filter must therefore never make a difference to.
type refCache struct {
	cfg       Config
	tags      *cache.Cache
	predictor *MissPredictor
	channels  []*sim.Resource
	stats     Stats
}

func newRefCache(cfg Config) *refCache {
	r := &refCache{cfg: cfg, tags: cache.New(cache.Config{Name: cfg.Name, SizeBytes: cfg.SizeBytes, Ways: 1})}
	if cfg.PredictorEntries > 0 {
		r.predictor = NewMissPredictor(cfg.PredictorEntries)
	}
	for i := 0; i < cfg.Channels; i++ {
		r.channels = append(r.channels, sim.NewResource(
			fmt.Sprintf("%s.ch%d", cfg.Name, i), sim.GBsToBytesPerCycle(cfg.ChannelBandwidthGBs)))
	}
	return r
}

func (r *refCache) Stats() Stats {
	s := r.stats
	if r.predictor != nil {
		s.Predictor = r.predictor.Stats()
	}
	return s
}

func (r *refCache) ResetStats() {
	r.stats = Stats{}
	r.tags.ResetStats()
	if r.predictor != nil {
		r.predictor.ResetStats()
	}
	for _, ch := range r.channels {
		ch.Reset()
	}
}

func (r *refCache) Reset() {
	r.stats = Stats{}
	r.tags.Reset()
	if r.predictor != nil {
		r.predictor.Reset()
	}
	for _, ch := range r.channels {
		ch.Reset()
	}
}

func (r *refCache) occupy(now sim.Time, b addr.Block) sim.Time {
	_, done := r.channels[int(uint64(b)%uint64(len(r.channels)))].Acquire(now, addr.BlockBytes)
	return done
}

func (r *refCache) Access(now sim.Time, b addr.Block, isWrite bool) AccessResult {
	if isWrite {
		r.stats.Writes++
	} else {
		r.stats.Reads++
	}
	predictedHit := true
	if r.predictor != nil {
		predictedHit = r.predictor.Predict(b)
	}
	line, hit := r.tags.Lookup(b)
	if r.predictor != nil {
		r.predictor.Resolve(predictedHit, hit)
	}
	res := AccessResult{Hit: hit, PredictedHit: predictedHit}
	if hit {
		res.State = line.State
		res.Dirty = line.Dirty
		if isWrite {
			r.stats.WriteHits++
			if r.cfg.Policy == Dirty {
				line.Dirty = true
				line.State = coherence.LineModified
			}
		} else {
			r.stats.ReadHits++
		}
		res.Done = r.occupy(now, b).Add(r.cfg.AccessLatency)
		return res
	}
	if predictedHit {
		res.Done = r.occupy(now, b).Add(r.cfg.AccessLatency)
	} else {
		res.Done = now
	}
	return res
}

func (r *refCache) Probe(now sim.Time, b addr.Block) (cache.Line, bool, sim.Time) {
	l, ok := r.tags.Probe(b)
	done := r.occupy(now, b).Add(r.cfg.AccessLatency)
	if ok {
		return *l, true, done
	}
	return cache.Line{}, false, done
}

func (r *refCache) Fill(now sim.Time, b addr.Block, st cache.State, dirty bool) FillResult {
	if r.cfg.Policy == Clean {
		dirty = false
		if st == coherence.LineModified {
			st = coherence.LineShared
		}
	}
	r.stats.Fills++
	victim := r.tags.Fill(b, st, dirty, 0)
	if victim.Valid {
		r.stats.Evictions++
		if victim.Dirty {
			r.stats.DirtyEvicts++
		}
		if r.predictor != nil {
			r.predictor.BlockEvicted(victim.Block)
		}
	}
	if r.predictor != nil {
		r.predictor.BlockFilled(b)
	}
	return FillResult{Victim: victim, Done: r.occupy(now, b)}
}

func (r *refCache) Warm(b addr.Block, st cache.State, dirty bool) {
	if r.cfg.Policy == Clean {
		dirty = false
		if st == coherence.LineModified {
			st = coherence.LineShared
		}
	}
	var victim cache.Victim
	var hit bool
	if dirty {
		victim, hit = r.tags.TouchDirty(b, st, 0)
	} else {
		victim, hit = r.tags.Touch(b, st, 0)
	}
	if hit || r.predictor == nil {
		return
	}
	if victim.Valid {
		r.predictor.BlockEvicted(victim.Block)
	}
	r.predictor.BlockFilled(b)
}

func (r *refCache) WarmWrite(b addr.Block) {
	if r.cfg.Policy != Dirty {
		return
	}
	if l, ok := r.tags.Probe(b); ok {
		l.State = coherence.LineModified
		l.Dirty = true
	}
}

func (r *refCache) WarmInvalidate(b addr.Block) {
	if r.tags.Invalidate(b).Valid && r.predictor != nil {
		r.predictor.BlockEvicted(b)
	}
}

func (r *refCache) Invalidate(b addr.Block) cache.Victim {
	v := r.tags.Invalidate(b)
	if v.Valid {
		r.stats.Invalidates++
		if r.predictor != nil {
			r.predictor.BlockEvicted(b)
		}
	}
	return v
}

func (r *refCache) CleanBlock(b addr.Block) bool { return r.tags.CleanBlock(b) }

func (r *refCache) HasDirtyBlocks() bool {
	dirty := false
	r.tags.ForEach(func(l cache.Line) { dirty = dirty || l.Dirty })
	return dirty
}

// lineFields is the exported content of a cache.Line: the fields any caller
// of Probe or ForEach can read.
type lineFields struct {
	Block    addr.Block
	State    cache.State
	Dirty    bool
	Presence cache.Presence
}

func fieldsOf(l cache.Line) lineFields {
	return lineFields{Block: l.Block, State: l.State, Dirty: l.Dirty, Presence: l.Presence}
}

// diffBlocks returns the blocks the differential test draws from on a cache
// of the given line count: block 0, the largest block addr.BlockOf returns,
// and groups of blocks that alias one set (the same index bits under
// different tags, low and near the top of the tag range).
func diffBlocks(rng *rand.Rand, lines uint64) []addr.Block {
	const maxBlock uint64 = 1<<58 - 1
	tags := maxBlock>>bits.TrailingZeros64(lines) + 1
	blocks := []addr.Block{0, addr.Block(maxBlock), addr.Block(maxBlock & (lines - 1)), addr.Block(lines)}
	for g := 0; g < 6; g++ {
		set := uint64(rng.Int63n(int64(lines)))
		for _, tag := range []uint64{0, 1, tags - 1, uint64(rng.Int63n(int64(tags)))} {
			blocks = append(blocks, addr.Block(tag*lines+set))
		}
	}
	for i := 0; i < 4; i++ {
		blocks = append(blocks, addr.Block(rng.Int63n(int64(maxBlock)+1)))
	}
	return blocks
}

// TestMatchesCacheBackedReference drives the packed cache and the
// cache.Cache-backed reference with the same seeded random operations and
// requires every return value, the counters, the resident lines and the
// dirty check to agree after every step.
func TestMatchesCacheBackedReference(t *testing.T) {
	type geometry struct {
		name  string
		bytes uint64
		steps int
	}
	for _, geom := range []geometry{{"4-line", 4 * addr.BlockBytes, 4000}, {"16MiB", 16 * testMB, 250}} {
		for _, policy := range []Policy{Clean, Dirty} {
			for _, predictor := range []int{0, 64} {
				name := fmt.Sprintf("%s/%v/predictor=%d", geom.name, policy, predictor)
				t.Run(name, func(t *testing.T) {
					cfg := DefaultConfig("dram$diff", geom.bytes, policy)
					cfg.PredictorEntries = predictor
					cfg.Channels = 2
					cfg.ChannelBandwidthGBs = 1 // slow enough that timing queues
					rng := rand.New(rand.NewSource(int64(len(name))*131 + int64(policy)*7 + int64(predictor)))
					diffRun(t, New(cfg), newRefCache(cfg), diffBlocks(rng, geom.bytes/addr.BlockBytes), rng, geom.steps)
				})
			}
		}
	}
}

func diffRun(t *testing.T, c *Cache, r *refCache, blocks []addr.Block, rng *rand.Rand, steps int) {
	t.Helper()
	states := []cache.State{coherence.LineShared, coherence.LineModified}
	now := sim.Time(0)
	for step := 0; step < steps; step++ {
		now += sim.Time(rng.Intn(200))
		b := blocks[rng.Intn(len(blocks))]
		st := states[rng.Intn(len(states))]
		dirty := rng.Intn(2) == 0
		var op string
		switch k := rng.Intn(12); k {
		case 0, 1:
			isWrite := k == 1
			op = fmt.Sprintf("Access(%d, %v, write=%v)", now, b, isWrite)
			if got, want := c.Access(now, b, isWrite), r.Access(now, b, isWrite); got != want {
				t.Fatalf("step %d %s = %+v, reference %+v", step, op, got, want)
			}
		case 2, 3:
			op = fmt.Sprintf("Fill(%d, %v, %d, %v)", now, b, st, dirty)
			if got, want := c.Fill(now, b, st, dirty), r.Fill(now, b, st, dirty); got != want {
				t.Fatalf("step %d %s = %+v, reference %+v", step, op, got, want)
			}
		case 4, 5:
			op = fmt.Sprintf("Warm(%v, %d, %v)", b, st, dirty)
			c.Warm(b, st, dirty)
			r.Warm(b, st, dirty)
		case 6:
			op = fmt.Sprintf("WarmWrite(%v)", b)
			c.WarmWrite(b)
			r.WarmWrite(b)
		case 7:
			op = fmt.Sprintf("WarmInvalidate(%v)", b)
			c.WarmInvalidate(b)
			r.WarmInvalidate(b)
		case 8:
			op = fmt.Sprintf("Invalidate(%v)", b)
			if got, want := c.Invalidate(b), r.Invalidate(b); got != want {
				t.Fatalf("step %d %s = %+v, reference %+v", step, op, got, want)
			}
		case 9:
			op = fmt.Sprintf("CleanBlock(%v)", b)
			if got, want := c.CleanBlock(b), r.CleanBlock(b); got != want {
				t.Fatalf("step %d %s = %v, reference %v", step, op, got, want)
			}
		case 10:
			op = fmt.Sprintf("Probe(%d, %v)", now, b)
			gl, gok, gdone := c.Probe(now, b)
			wl, wok, wdone := r.Probe(now, b)
			if fieldsOf(gl) != fieldsOf(wl) || gok != wok || gdone != wdone {
				t.Fatalf("step %d %s = %+v,%v,%v, reference %+v,%v,%v", step, op, gl, gok, gdone, wl, wok, wdone)
			}
		case 11:
			if rng.Intn(8) == 0 {
				op = "Reset()"
				c.Reset()
				r.Reset()
			} else {
				op = "ResetStats()"
				c.ResetStats()
				r.ResetStats()
			}
		}
		if got, want := c.Stats(), r.Stats(); got != want {
			t.Fatalf("step %d after %s: Stats = %+v, reference %+v", step, op, got, want)
		}
		if got, want := c.ValidLines(), r.tags.ValidLines(); got != want {
			t.Fatalf("step %d after %s: ValidLines = %d, reference %d", step, op, got, want)
		}
		if got, want := c.HasDirtyBlocks(), r.HasDirtyBlocks(); got != want {
			t.Fatalf("step %d after %s: HasDirtyBlocks = %v, reference %v", step, op, got, want)
		}
		var got, want []lineFields
		c.ForEach(func(l cache.Line) { got = append(got, fieldsOf(l)) })
		r.tags.ForEach(func(l cache.Line) { want = append(want, fieldsOf(l)) })
		if !slices.Equal(got, want) {
			t.Fatalf("step %d after %s: ForEach = %+v, reference %+v", step, op, got, want)
		}
	}
}
