package machine

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"c3d/internal/addr"
	"c3d/internal/cache"
	"c3d/internal/coherence"
	"c3d/internal/sample"
	"c3d/internal/workload"
)

// writeSharingSpec is a small, heavily write-shared workload: many threads
// storing to the same few mailboxes and shared blocks, the pattern that
// drives every back-invalidation path (ownership transfers, sharer
// invalidations, broadcasts, directory recalls and LLC victims).
func writeSharingSpec() workload.Spec {
	s := communicationHeavySpec()
	s.Name = "test-write-sharing"
	s.ReadFraction = 0.5
	s.AccessesPerThread = 3000
	return s
}

// Every registered design must leave each socket's L1s a subset of its LLC,
// with the LLC presence bits naming every L1 that holds a line, after both a
// full run and a sampled run (whose functional warming maintains the same
// bits through a separate code path).
func TestInclusionHoldsAfterFullAndSampledRuns(t *testing.T) {
	opts := workload.Options{Threads: 8, Scale: 64, AccessesPerThread: 3000}
	tr := workload.MustGenerate(writeSharingSpec(), opts)
	spec := sample.Spec{Stretch: 300, Warm: 30, Window: 30, Seed: 1}
	for _, design := range Designs() {
		for _, run := range []struct {
			name string
			opts RunOptions
		}{{"full", DefaultRunOptions()}, {"sampled", sampledOpts(spec)}} {
			m := New(testConfig(design))
			if _, err := m.Run(context.Background(), tr, run.opts); err != nil {
				t.Fatalf("%v %s run: %v", design, run.name, err)
			}
			if err := m.CheckInvariants(); err != nil {
				t.Errorf("%v %s run: %v", design, run.name, err)
			}
		}
	}
}

// Sockets wider than cache.PresenceBits alias several cores onto one bit; the
// bits stay conservative, so a 2×16 machine must keep inclusion exact under
// write sharing across all 32 cores.
func TestInclusionHoldsWithAliasedPresenceBits(t *testing.T) {
	opts := workload.Options{Threads: 32, Scale: 64, AccessesPerThread: 1500}
	tr := workload.MustGenerate(writeSharingSpec(), opts)
	for _, design := range []Design{Baseline, Snoopy, C3D} {
		cfg := DefaultConfig(2, design)
		if cfg.CoresPerSocket <= cache.PresenceBits {
			t.Fatalf("2-socket default has %d cores per socket; the test needs more than %d",
				cfg.CoresPerSocket, cache.PresenceBits)
		}
		m := New(cfg)
		if _, err := m.Run(context.Background(), tr, DefaultRunOptions()); err != nil {
			t.Fatalf("%v: %v", design, err)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Errorf("%v: %v", design, err)
		}
	}
}

// Two cores whose local indices alias onto the same presence bit must both
// be reached by the socket's back-invalidation sweeps.
func TestAliasedL1sAreBothInvalidated(t *testing.T) {
	m := New(DefaultConfig(2, Baseline))
	sock := m.sockets[0]
	c0, c1 := 0, cache.PresenceBits // local indices 0 and 8 share bit 0
	if sock.presenceOf(c0) != sock.presenceOf(c1) {
		t.Fatalf("cores %d and %d do not alias", c0, c1)
	}
	a := addrHomedAt(0, 0)
	b := addr.BlockOf(a)
	both := func() {
		t.Helper()
		m.Read(0, c0, a)
		m.Read(0, c1, a)
		if !sock.l1Of(c0).Contains(b) || !sock.l1Of(c1).Contains(b) {
			t.Fatal("setup: both aliased L1s should hold the block")
		}
	}

	both()
	sock.invalidateOnChip(b)
	if sock.l1Of(c0).Contains(b) || sock.l1Of(c1).Contains(b) || sock.llc.Contains(b) {
		t.Error("invalidateOnChip left an aliased copy behind")
	}

	both()
	sock.invalidateL1sExcept(c0, b)
	if !sock.l1Of(c0).Contains(b) {
		t.Error("invalidateL1sExcept dropped the writer's copy")
	}
	if sock.l1Of(c1).Contains(b) {
		t.Error("invalidateL1sExcept left the aliased core's copy behind")
	}
	if line, _ := sock.llc.Probe(b); line.Presence != sock.presenceOf(c0) {
		t.Errorf("presence after invalidateL1sExcept = %08b, want only the writer's bit", line.Presence)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// CheckInvariants must notice both ways inclusion can break: an L1 line
// whose block left the LLC, and an LLC line whose presence bits omit an L1
// that holds it.
func TestCheckInvariantsDetectsInclusionViolations(t *testing.T) {
	setup := func() (*Machine, *Socket, addr.Block) {
		m := New(testConfig(Baseline))
		a := addrHomedAt(0, 0)
		m.Read(0, 1, a)
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("clean machine: %v", err)
		}
		return m, m.sockets[0], addr.BlockOf(a)
	}

	m, sock, b := setup()
	sock.llc.Invalidate(b)
	if err := m.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "absent from socket 0") {
		t.Errorf("L1 line without an LLC line: got %v", err)
	}

	m, sock, b = setup()
	line, _ := sock.llc.Probe(b)
	line.Presence = 0
	if err := m.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "presence bits") {
		t.Errorf("L1 line missing from the presence bits: got %v", err)
	}
}

// CheckInvariants must notice a memory-side DRAM cache holding a block homed
// at another socket.
func TestCheckInvariantsDetectsForeignHomedBlocks(t *testing.T) {
	m := New(testConfig(SharedDRAM))
	m.Read(0, 0, addrHomedAt(0, 0))
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("clean machine: %v", err)
	}
	m.sockets[0].dramCache.Fill(0, addr.BlockOf(addrHomedAt(1, 0)), coherence.LineShared, false)
	if err := m.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "homed at socket 1") {
		t.Errorf("socket 0 caching a block homed at socket 1: got %v", err)
	}
}

// CheckInvariants must be read-only, so it can run mid-run without moving
// results. Socket 0's cache is also given a block of a page nothing has
// placed: resolving that block's home through the page table would place the
// page and count an interleaving fallback.
func TestCheckInvariantsLeavesPageStatsAlone(t *testing.T) {
	cfg := testConfig(SharedDRAM)
	cfg.Scale = 512
	tr := workload.MustGenerate(workload.MustGet("streamcluster"),
		workload.Options{Threads: cfg.Cores(), Scale: cfg.Scale, AccessesPerThread: 2000})
	m := New(cfg)
	if _, err := m.Run(context.Background(), tr, DefaultRunOptions()); err != nil {
		t.Fatal(err)
	}
	unplaced := addr.Addr(1 << 44) // page 2^32, interleaved onto socket 0
	m.sockets[0].dramCache.Fill(0, addr.BlockOf(unplaced), coherence.LineShared, false)
	before := m.PageTable().Stats()
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if after := m.PageTable().Stats(); !reflect.DeepEqual(before, after) {
		t.Errorf("CheckInvariants changed the page statistics:\n before %+v\n after  %+v", before, after)
	}
}
