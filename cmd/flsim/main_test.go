package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestNoSamplesRefused runs flsim (this test binary re-executed as main)
// with -samples 0 and below, and with sets too small for -clients, IID
// and not: it exits 1 with one line naming the flags, not 2 with a panic
// from tensor.New or the partitioner.
func TestNoSamplesRefused(t *testing.T) {
	if args := os.Getenv("FLSIM_TEST_ARGS"); args != "" {
		os.Args = append([]string{"flsim"}, strings.Fields(args)...)
		main()
		return
	}
	for _, c := range []struct{ args, want string }{
		{"-samples=0", "flsim: -samples"},
		{"-samples=-4", "flsim: -samples"},
		{"-samples=10 -clients=8", "flsim: -samples 10 leaves 8 training samples, too few for -clients 8"},
		{"-dist=iid -samples=3 -clients=3", "flsim: -samples 3 leaves 2 training samples, too few for -clients 3"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestNoSamplesRefused$")
		cmd.Env = append(os.Environ(), "FLSIM_TEST_ARGS="+c.args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 ||
			!strings.Contains(string(out), c.want) || strings.Contains(string(out), "panic") {
			t.Errorf("flsim %s: %v\n%s", c.args, err, out)
		}
	}
}
