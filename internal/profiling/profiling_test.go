package profiling

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

func TestProfilesGoOnlyToNamedFiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	f := DefineFlags(fs)
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	stop, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	// A second stop (a deferred one after an explicit one) is a no-op.
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s: want a non-empty profile, got %v, %v", path, st, err)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 2 {
		t.Errorf("profile directory holds %d files, want 2", len(entries))
	}
}

func TestNoFlagsNoProfiles(t *testing.T) {
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	f := DefineFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	stop, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestUnwritableProfileIsAnError(t *testing.T) {
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	f := DefineFlags(fs)
	if err := fs.Parse([]string{"-cpuprofile", filepath.Join(t.TempDir(), "missing", "cpu.prof")}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Start(); err == nil {
		t.Fatal("Start with an uncreatable -cpuprofile path succeeded")
	}
}
