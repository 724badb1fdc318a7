package main

import (
	"bytes"
	"flag"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"adafl/cmd/internal/cli"
	"adafl/internal/edge"
	"adafl/internal/rpc"
)

// TestFlagSets pins every subcommand's flags: each is read by that mode,
// so adding one is a deliberate change to this list.
func TestFlagSets(t *testing.T) {
	want := map[string][]string{
		"":       {"clients", "dim", "json", "nnz", "rounds", "scenario", "seed"},
		"socket": {"addr", "clients", "dim", "json", "nnz", "offset", "role", "rounds", "scenario", "seed"},
		"edge":   {"addr", "clients", "dim", "nnz", "offset", "seed"},
		"async":  {"addr", "clients", "nnz", "offset", "seed", "session"},
	}
	if len(commands) != len(want) {
		t.Fatalf("%d subcommands, want %d", len(commands), len(want))
	}
	for _, c := range commands {
		fs := flag.NewFlagSet(c.Name, flag.ContinueOnError)
		c.Flags(fs)
		var got []string
		fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
		if !slices.Equal(got, want[c.Name]) {
			t.Errorf("flfleet %s flags:\n got %v\nwant %v", c.Name, got, want[c.Name])
		}
	}
}

// TestForeignFlagFailsParse: the address flags that used to pick the mode,
// and the flags a mode never reads, are parse errors.
func TestForeignFlagFailsParse(t *testing.T) {
	for _, tt := range []struct {
		args      []string
		undefined string
	}{
		{[]string{"-fleet-addr", "unix:/tmp/x.sock"}, "-fleet-addr"},
		{[]string{"-edge-bootstrap", "localhost:7070"}, "-edge-bootstrap"},
		{[]string{"-async-addr", "localhost:7070"}, "-async-addr"},
		{[]string{"socket", "-workers", "4"}, "-workers"},
		{[]string{"-shards", "4"}, "-shards"},
		{[]string{"socket", "-shards", "4"}, "-shards"},
		{[]string{"edge", "-rounds", "3"}, "-rounds"},
		{[]string{"async", "-dim", "100"}, "-dim"},
	} {
		var out bytes.Buffer
		r, _, err := cli.Parse("flfleet", commands, tt.args, &out)
		if err == nil || r != nil {
			t.Errorf("%q parsed", tt.args)
			continue
		}
		if want := "flag provided but not defined: " + tt.undefined; !strings.Contains(out.String(), want) {
			t.Errorf("%q: output lacks %q:\n%s", tt.args, want, out.String())
		}
	}
}

// TestFlagsLandInConfig: every flag reaches the field of the config its
// mode builds.
func TestFlagsLandInConfig(t *testing.T) {
	for _, tt := range []struct {
		args []string
		want any
	}{
		{[]string{}, inProcessCmd{clients: 1000, rounds: 5, dim: 20000, nnz: 1000, seed: 1}},
		{[]string{"-clients", "7", "-rounds", "3", "-dim", "50", "-nnz", "5",
			"-seed", "9", "-json", "-scenario", "s.json"},
			inProcessCmd{clients: 7, rounds: 3, dim: 50, nnz: 5, seed: 9, asJSON: true, scenario: "s.json"}},
		{[]string{"socket", "-addr", "tcp:127.0.0.1:0", "-clients", "4", "-rounds", "2", "-dim", "50",
			"-nnz", "5", "-seed", "3"},
			rpc.FleetConfig{Network: "tcp", Addr: "127.0.0.1:0", Clients: 4, Rounds: 2, Dim: 50, Nnz: 5, Seed: 3}},
		{[]string{"socket", "-addr", "unix:/tmp/f.sock", "-role", "server"},
			rpc.FleetConfig{Network: "unix", Addr: "/tmp/f.sock", Clients: 1000, Rounds: 5, Dim: 20000, Nnz: 1000,
				Seed: 1, ExternalClients: true}},
		{[]string{"edge", "-addr", "h:1", "-clients", "16", "-offset", "3", "-dim", "2000", "-nnz", "100", "-seed", "2"},
			edge.ClientsConfig{Bootstrap: "h:1", Lo: 3, Hi: 19, Dim: 2000, Nnz: 100, Seed: 2}},
		{[]string{"async", "-addr", "h:2", "-session", "eu", "-clients", "8", "-offset", "1", "-nnz", "10", "-seed", "4"},
			asyncCmd{addr: "h:2", session: "eu", clients: 8, offset: 1, nnz: 10, seed: 4}},
	} {
		var out bytes.Buffer
		r, _, err := cli.Parse("flfleet", commands, tt.args, &out)
		if err != nil {
			t.Fatalf("%q: %v\n%s", tt.args, err, out.String())
		}
		var got any
		switch c := r.(type) {
		case *inProcessCmd:
			got = *c
		case *socketCmd:
			cfg, err := c.config()
			if err != nil {
				t.Fatalf("%q: %v", tt.args, err)
			}
			cfg.Logf = nil
			got = cfg
		case *edgeCmd:
			cfg := c.config()
			cfg.Logf = nil
			got = cfg
		case *asyncCmd:
			got = *c
		}
		if !reflect.DeepEqual(got, tt.want) {
			t.Errorf("%q:\n got %+v\nwant %+v", tt.args, got, tt.want)
		}
	}

	for _, args := range [][]string{
		{"socket"}, // -addr is required
		{"socket", "-addr", "udp:h:1"},
		{"socket", "-addr", "tcp:h:1", "-role", "both-ish"},
		{"socket", "-addr", "tcp:h:1", "-role", "clients", "-scenario", "s.json"},
	} {
		r, _, err := cli.Parse("flfleet", commands, args, &bytes.Buffer{})
		if err != nil {
			t.Fatalf("%q: %v", args, err)
		}
		if _, err := r.(*socketCmd).config(); err == nil {
			t.Errorf("%q accepted", args)
		}
	}
}

// TestStreamAndSocketFoldTheSameFleet: the in-process tree and the socket
// harness draw the same FleetUpdate stream and fold it in fixed point, so
// with the same flags their global checksums are the same bits, whatever
// stripe each update lands in.
func TestStreamAndSocketFoldTheSameFleet(t *testing.T) {
	shape := []string{"-clients", "64", "-rounds", "3", "-dim", "2000", "-nnz", "100", "-seed", "5"}
	parse := func(args ...string) cli.Runner {
		r, _, err := cli.Parse("flfleet", commands, append(args, shape...), &bytes.Buffer{})
		if err != nil {
			t.Fatalf("%q: %v", args, err)
		}
		return r
	}
	stream, err := parse().(*inProcessCmd).fold()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := parse("socket", "-addr", "unix:"+filepath.Join(t.TempDir(), "f.sock")).(*socketCmd).config()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Logf = nil
	socket, err := rpc.RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stream.GlobalChecksum == 0 {
		t.Fatal("zero stream checksum: nothing folded")
	}
	if stream.GlobalChecksum != socket.Checksum {
		t.Errorf("stream checksum %v, socket %v: they fold different fleets", stream.GlobalChecksum, socket.Checksum)
	}
}
