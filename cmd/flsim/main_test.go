package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestNoSamplesRefused runs flsim (this test binary re-executed as main)
// with -samples 0 and below: it exits 1 with a message naming the flag,
// not 2 with a panic from tensor.New.
func TestNoSamplesRefused(t *testing.T) {
	if arg := os.Getenv("FLSIM_TEST_ARG"); arg != "" {
		os.Args = []string{"flsim", arg}
		main()
		return
	}
	for _, arg := range []string{"-samples=0", "-samples=-4"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestNoSamplesRefused$")
		cmd.Env = append(os.Environ(), "FLSIM_TEST_ARG="+arg)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 ||
			!strings.Contains(string(out), "flsim: -samples") || strings.Contains(string(out), "panic") {
			t.Errorf("flsim %s: %v\n%s", arg, err, out)
		}
	}
}
