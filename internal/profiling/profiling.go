// Package profiling implements the -cpuprofile and -memprofile flags the
// command-line tools share: host-side pprof profiles of a simulator run,
// written only to the named files, so a tool's standard output is the same
// with or without them.
//
// Fold a CPU profile by source file, and so by package, with
//
//	go tool pprof -top -files c3dsim cpu.prof
package profiling

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the two profile paths; an empty path disables that profile.
type Flags struct {
	cpu, mem string
}

// DefineFlags adds -cpuprofile and -memprofile to fs.
func DefineFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.cpu, "cpuprofile", "", "write a CPU profile of the run to `file`")
	fs.StringVar(&f.mem, "memprofile", "", "write a heap profile at the end of the run to `file`")
	return f
}

// Start begins the CPU profile, if one was asked for, and returns the
// function that ends it and writes the heap profile. The returned function
// is safe to call more than once (only the first call acts), so a tool can
// both defer it and call it before an os.Exit.
func (f *Flags) Start() (stop func() error, err error) {
	var cpu *os.File
	if f.cpu != "" {
		if cpu, err = os.Create(f.cpu); err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	done := false
	return func() error {
		if done {
			return nil
		}
		done = true
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return fmt.Errorf("cpuprofile: %w", err)
			}
		}
		if f.mem == "" {
			return nil
		}
		mem, err := os.Create(f.mem)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		runtime.GC() // materialise the final live-heap statistics
		if err := pprof.WriteHeapProfile(mem); err != nil {
			mem.Close()
			return fmt.Errorf("memprofile: %w", err)
		}
		if err := mem.Close(); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		return nil
	}, nil
}
