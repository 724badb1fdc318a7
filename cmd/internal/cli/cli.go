// Package cli is what the command binaries share: subcommands that each
// parse a flag set of their own, the synthetic federation task the server
// and its clients derive from one seed, and the optional metrics server
// and event log.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"adafl/internal/dataset"
	"adafl/internal/nn"
	"adafl/internal/obs"
	"adafl/internal/stats"
)

// Runner is a subcommand whose flags have been parsed, ready to start.
type Runner interface {
	Run() error
}

// Command is one subcommand of a binary.
type Command struct {
	// Name selects the subcommand as the binary's first argument. The
	// first Command of a list is the default, run when the first argument
	// is a flag or there is none; its Name is "".
	Name    string
	Summary string
	// Flags registers the subcommand's flags, and only those, on fs and
	// returns the subcommand, which reads them once fs is parsed.
	Flags func(fs *flag.FlagSet) Runner
}

// Parse selects the subcommand args[0] names (the default when args is
// empty or starts with a flag), registers that subcommand's flags on a
// flag set of its own and parses the rest of args into it. Nothing starts
// here — no socket is bound and no file opened — so a flag the subcommand
// does not take fails before anything runs. name is the subcommand as the
// user spelled it ("flserver async"). Usage text and errors go to out; -h
// returns flag.ErrHelp.
func Parse(prog string, cmds []Command, args []string, out io.Writer) (r Runner, name string, err error) {
	cmd := cmds[0]
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		i := 1
		for i < len(cmds) && cmds[i].Name != args[0] {
			i++
		}
		if i == len(cmds) {
			err := fmt.Errorf("%s: unknown command %q", prog, args[0])
			fmt.Fprintln(out, err)
			commandList(out, prog, cmds)
			return nil, prog, err
		}
		cmd, args = cmds[i], args[1:]
	}
	name = strings.TrimSpace(prog + " " + cmd.Name)
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(out)
	r = cmd.Flags(fs)
	fs.Usage = func() {
		if cmd.Name == "" {
			commandList(out, prog, cmds)
			fmt.Fprintf(out, "\nflags:\n")
		} else {
			fmt.Fprintf(out, "usage: %s [flags]\n\n%s\n\nflags:\n", name, cmd.Summary)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return nil, name, err
	}
	if fs.NArg() > 0 {
		err := fmt.Errorf("%s: unexpected argument %q", name, fs.Arg(0))
		fmt.Fprintln(out, err)
		return nil, name, err
	}
	return r, name, nil
}

func commandList(out io.Writer, prog string, cmds []Command) {
	fmt.Fprintf(out, "usage: %s [command] [flags]\n\ncommands:\n", prog)
	for _, c := range cmds {
		n := c.Name
		if n == "" {
			n = "(none)"
		}
		fmt.Fprintf(out, "  %-8s %s\n", n, c.Summary)
	}
	fmt.Fprintf(out, "\n'%s <command> -h' lists a command's flags.\n", prog)
}

// Main parses the process's arguments against cmds and runs the chosen
// subcommand. It exits 0 after -h, 2 on a usage error and 1 when the
// subcommand fails.
func Main(prog string, cmds []Command) {
	r, name, err := Parse(prog, cmds, os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2)
	}
	if err := r.Run(); err != nil {
		log.Fatalf("%s: %v", name, err)
	}
}

// Task is the synthetic federation a server and its clients derive from
// the shared seed: SynthMNIST at Seed, split 80/20 at Seed+1, and an
// ImageMLP initialised at Seed+3. Both sides must be given the same three
// flags; nothing crosses the network to check it.
type Task struct {
	Seed             uint64
	ImgSize, Samples int
}

// Register adds -seed, -imgsize and -samples to fs.
func (t *Task) Register(fs *flag.FlagSet) {
	fs.Uint64Var(&t.Seed, "seed", 1, "shared experiment seed (server and clients must agree)")
	fs.IntVar(&t.ImgSize, "imgsize", 16, "synthetic image size (server and clients must agree)")
	fs.IntVar(&t.Samples, "samples", 2000, "total synthetic samples (server and clients must agree)")
}

// Split generates the dataset and returns its training and held-out test
// parts.
func (t Task) Split() (train, test *dataset.Dataset, err error) {
	if t.ImgSize < 12 {
		return nil, nil, fmt.Errorf("-imgsize %d: the synthetic digits need at least 12 pixels a side", t.ImgSize)
	}
	train, test = dataset.SynthMNIST(t.Samples, t.ImgSize, t.Seed).Split(0.8, t.Seed+1)
	return train, test, nil
}

// NewModel returns the constructor of the shared architecture; every call
// builds the same initial weights.
func (t Task) NewModel() func() *nn.Model {
	size, seed := t.ImgSize, t.Seed+3
	return func() *nn.Model {
		return nn.NewImageMLP([]int{1, size, size}, []int{32}, 10, stats.NewRNG(seed))
	}
}

// MetricsFlag registers -metrics-addr on fs.
func MetricsFlag(fs *flag.FlagSet) *string {
	return fs.String("metrics-addr", "", "listen address for the debug HTTP server (/metrics, /healthz, /debug/pprof); empty disables it")
}

// EventLogFlag registers -event-log on fs.
func EventLogFlag(fs *flag.FlagSet) *string {
	return fs.String("event-log", "", "append one JSON line per engine event (selection, update, evict, quarantine, aggregate, round or version, checkpoint) to this file; empty disables it")
}

// OpenMetrics starts the debug HTTP server on addr and returns its
// registry and a stop function. An empty addr starts nothing: the registry
// is nil, which every engine takes as metrics off.
func OpenMetrics(addr, who string) (*obs.Registry, func(), error) {
	if addr == "" {
		return nil, func() {}, nil
	}
	reg := obs.NewRegistry()
	dbg, err := obs.NewDebugServer(addr, reg)
	if err != nil {
		return nil, nil, fmt.Errorf("metrics server: %w", err)
	}
	log.Printf("%s: metrics at http://%s/metrics", who, dbg.Addr())
	return reg, func() { dbg.Close() }, nil
}

// OpenEventLog opens the JSONL event log at path, creating its directory,
// and returns it with a close function that logs a failed close. An empty
// path opens nothing: the log is nil, which every engine takes as off.
func OpenEventLog(path, who string) (*obs.EventLog, func(), error) {
	if path == "" {
		return nil, func() {}, nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, fmt.Errorf("event log dir: %w", err)
	}
	ev, err := obs.OpenEventLog(path)
	if err != nil {
		return nil, nil, err
	}
	return ev, func() {
		if err := ev.Close(); err != nil {
			log.Printf("%s: event log close: %v", who, err)
		}
	}, nil
}
