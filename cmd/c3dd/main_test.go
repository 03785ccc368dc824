package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for c3dd: with C3DD_AS_MAIN set it
// runs main on its own arguments instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("C3DD_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFlagOfOtherModeExits2 checks that a flag the selected mode does not
// use is rejected with exit 2 and a message naming it, before anything is
// listened on or dialled.
func TestFlagOfOtherModeExits2(t *testing.T) {
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-workers", []string{"-workers", "http://a,http://b"}},
		{"-policy", []string{"-policy", "round-robin"}},
		{"-journal", []string{"-journal", t.TempDir()}},
		{"-cancel-grace", []string{"-cancel-grace", "1s"}},
		{"-queue", []string{"-coordinator", "-workers", "http://a", "-queue", "3"}},
		{"-retain", []string{"-coordinator", "-workers", "http://a", "-retain", "3"}},
		{"-jobs", []string{"-coordinator", "-workers", "http://a", "-jobs", "2"}},
	} {
		cmd := exec.Command(os.Args[0], tc.args...)
		cmd.Env = append(os.Environ(), "C3DD_AS_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("c3dd %s: %v, want exit 2\n%s", strings.Join(tc.args, " "), err, out)
			continue
		}
		if !strings.Contains(string(out), tc.flag+" has no effect") {
			t.Errorf("c3dd %s: message %q does not name %s", strings.Join(tc.args, " "), out, tc.flag)
		}
	}
}
