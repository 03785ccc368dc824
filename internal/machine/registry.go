package machine

import (
	"fmt"
	"sort"
	"sync"

	"c3d/internal/addr"
	"c3d/internal/cache"
	"c3d/internal/coherence"
	"c3d/internal/core"
	"c3d/internal/sim"
)

// Engine is the per-design coherence behaviour. ReadMiss and WriteMiss handle
// requests that missed the requesting socket's on-chip hierarchy and return
// the time the data (for reads) or the ownership grant (for writes) reaches
// the requesting core. LLCEvict handles an LLC victim.
//
// Engines are built by the DesignSpec factory registered for the machine's
// design; they typically hold the *Machine and use its shared helpers
// (sendControl, homeReply, forwardToOwner, ...).
type Engine interface {
	ReadMiss(now sim.Time, sock *Socket, coreID int, b addr.Block) sim.Time
	WriteMiss(now sim.Time, sock *Socket, coreID int, b addr.Block, upgrade bool) sim.Time
	LLCEvict(now sim.Time, sock *Socket, victim cache.Victim)
}

// SocketDirectories is what a design contributes to each socket: its slice of
// the global directory. The C3D designs use the protocol-aware directory from
// internal/core; the others use the generic structure (either may be nil).
type SocketDirectories struct {
	C3D     *core.Directory
	Generic *coherence.Directory
}

// DesignSpec describes one registered coherence design: its identity, the
// structural traits the rest of the machine keys off, and the two factories
// that used to live in `switch cfg.Design` blocks — the engine and the
// per-socket directory slices.
//
// To add a design, register a spec from an init function:
//
//	func init() {
//		machine.RegisterDesign(machine.DesignSpec{
//			Name:             "my-design",
//			Description:      "DRAM caches with my coherence twist",
//			HasDRAMCache:     true,
//			PrivateDRAMCache: true,
//			NewEngine:        func(m *machine.Machine) machine.Engine { return &myEngine{m: m} },
//			NewDirectories:   machine.SparseGenericDirectory,
//		})
//	}
//
// where myEngine implements Engine's ReadMiss, WriteMiss and LLCEvict. A
// design is a protocol engine plus its DRAM-cache traits: the shared
// (memory-side) design, for one, registers the baseline's engine with
// HasDRAMCache set and PrivateDRAMCache clear.
//
// Nothing else changes: ParseDesign accepts the new name, Designs() lists it,
// machine construction routes to the factories, and the SDK / CLIs / daemon
// all reach it through the same registry.
type DesignSpec struct {
	// Name is the registry key ("baseline", "c3d", ...).
	Name Design
	// Description is a one-line summary for listings.
	Description string
	// Rank orders Designs(): lower first, ties broken by name. The built-ins
	// use 0-5 (the paper's evaluation order).
	Rank int
	// Evaluated marks the designs compared in Figs. 6-9.
	Evaluated bool
	// HasDRAMCache gives each socket a DRAM cache.
	HasDRAMCache bool
	// PrivateDRAMCache marks the DRAM caches private per socket (needing
	// coherence) rather than memory-side. A memory-side cache fronts its
	// socket's memory: the machine routes home-memory reads and write-backs
	// through it (homeRead, homeWrite), and functional warming fills it at
	// each block's home.
	PrivateDRAMCache bool
	// CleanDRAMCache keeps the DRAM caches clean (write-through) — C3D's
	// defining property; it selects the dramcache write policy.
	CleanDRAMCache bool
	// NewEngine builds the design's coherence engine for a machine.
	NewEngine func(m *Machine) Engine
	// NewDirectories builds socket id's directory slices from the machine
	// configuration.
	NewDirectories func(socketID int, cfg Config) SocketDirectories
}

var (
	designMu  sync.RWMutex
	designReg = make(map[Design]DesignSpec)
)

// RegisterDesign adds a design to the registry. It panics on a duplicate name
// or a malformed spec — registration happens in init functions, where
// misconfiguration should fail loudly.
func RegisterDesign(spec DesignSpec) {
	if spec.Name == "" {
		panic("machine: RegisterDesign with empty name")
	}
	if spec.NewEngine == nil {
		panic(fmt.Sprintf("machine: design %q has no NewEngine factory", spec.Name))
	}
	if spec.NewDirectories == nil {
		panic(fmt.Sprintf("machine: design %q has no NewDirectories factory", spec.Name))
	}
	designMu.Lock()
	defer designMu.Unlock()
	if _, dup := designReg[spec.Name]; dup {
		panic(fmt.Sprintf("machine: design %q registered twice", spec.Name))
	}
	designReg[spec.Name] = spec
}

// designSpec returns the spec registered under d.
func designSpec(d Design) (DesignSpec, error) {
	designMu.RLock()
	spec, ok := designReg[d]
	designMu.RUnlock()
	if !ok {
		return DesignSpec{}, fmt.Errorf("machine: unknown design %q (known: %v)", string(d), Designs())
	}
	return spec, nil
}

// mustDesignSpec is designSpec for callers that run after Config.Validate.
func mustDesignSpec(d Design) DesignSpec {
	spec, err := designSpec(d)
	if err != nil {
		panic(err.Error())
	}
	return spec
}

// designSpecs returns every registered spec in deterministic order:
// ascending Rank, ties broken by name.
func designSpecs() []DesignSpec {
	designMu.RLock()
	specs := make([]DesignSpec, 0, len(designReg))
	//c3dlint:allow determinism(collection only; specs are sorted by rank then name immediately below)
	for _, spec := range designReg {
		specs = append(specs, spec)
	}
	designMu.RUnlock()
	sort.Slice(specs, func(i, j int) bool {
		if specs[i].Rank != specs[j].Rank {
			return specs[i].Rank < specs[j].Rank
		}
		return specs[i].Name < specs[j].Name
	})
	return specs
}

// SparseGenericDirectory builds the baseline's sparse, bounded generic
// directory slice — the default directory organisation for designs without
// protocol-aware tracking needs.
func SparseGenericDirectory(socketID int, cfg Config) SocketDirectories {
	return SocketDirectories{Generic: coherence.NewDirectory(coherence.DirConfig{
		Name:    fmt.Sprintf("gdir.%d", socketID),
		Entries: cfg.DirEntries(),
		Ways:    cfg.DirWays,
	})}
}

// UnboundedGenericDirectory builds an idealised inclusive directory slice
// with unbounded capacity (no recalls) — the paper's deliberately optimistic
// model of the naive full-directory design.
func UnboundedGenericDirectory(socketID int, cfg Config) SocketDirectories {
	return SocketDirectories{Generic: coherence.NewDirectory(coherence.DirConfig{
		Name: fmt.Sprintf("gdir.%d", socketID),
	})}
}
