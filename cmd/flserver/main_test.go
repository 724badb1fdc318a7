package main

import (
	"bytes"
	"flag"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"adafl/cmd/internal/cli"
	"adafl/internal/core"
	"adafl/internal/edge"
	"adafl/internal/rpc"
	"adafl/internal/session"
)

var faultFlags = []string{"fault-bandwidth", "fault-cut-after", "fault-drop", "fault-jitter", "fault-latency", "fault-partition", "fault-seed"}

// TestFlagSets pins every subcommand's flags: each is read by that
// subcommand's engine, so adding one is a deliberate change to this list.
func TestFlagSets(t *testing.T) {
	want := map[string][]string{
		"": append([]string{"addr", "assign-log", "checkpoint-dir", "clients", "event-log"}, append(faultFlags,
			"imgsize", "k", "max-update-norm", "metrics-addr", "min-clients", "negotiate", "resume", "rounds",
			"samples", "scenario", "scenario-log", "seed", "shards", "straggler-timeout", "tau", "warmup")...),
		"async": append([]string{"addr", "buffer-k", "checkpoint-dir", "clients", "eta", "event-log"}, append(faultFlags,
			"imgsize", "max-staleness", "max-update-norm", "metrics-addr", "resume", "samples", "seed",
			"sessions", "shards", "versions")...),
		"root": {"addr", "checkpoint-dir", "clients", "dim", "edge-addr", "edges", "event-log",
			"heartbeat-timeout", "metrics-addr", "resume", "rounds"},
		"edge": {"addr", "dim", "event-log", "heartbeat-interval", "id", "max-update-norm", "metrics-addr",
			"negotiate", "region", "retries", "root-addr", "seed"},
		"doctor": {"checkpoint-dir", "event-log"},
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
			t.Errorf("flserver %s flags:\n got %v\nwant %v", c.Name, got, want[c.Name])
		}
	}

	// The deployment surface an operator reads first stays short.
	var out bytes.Buffer
	if _, _, err := cli.Parse("flserver", commands, []string{"-h"}, &out); err != flag.ErrHelp {
		t.Fatalf("flserver -h: %v", err)
	}
	lines := 0
	for _, l := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(l, "  -") {
			lines++
		}
	}
	if lines != len(want[""]) || lines > 30 {
		t.Errorf("flserver -h lists %d flags, want %d (and at most 30)", lines, len(want[""]))
	}
}

// TestForeignFlagFailsParse: a flag another engine reads is a parse error
// of the subcommand that does not, reported before anything starts — Parse
// binds no socket, so these never serve.
func TestForeignFlagFailsParse(t *testing.T) {
	for _, tt := range []struct {
		args      []string
		undefined string
	}{
		{[]string{"async", "-scenario", "/nonexistent.json", "-negotiate", "-assign-log", "/nonexistent/dir/a.jsonl", "-k", "99", "-straggler-timeout", "1ms"}, "-scenario"},
		{[]string{"async", "-negotiate"}, "-negotiate"},
		{[]string{"async", "-rounds", "5"}, "-rounds"},
		{[]string{"root", "-scenario", "/nonexistent.json", "-shards", "7", "-fault-latency", "1s", "-max-update-norm", "3"}, "-scenario"},
		{[]string{"root", "-fault-latency", "1s"}, "-fault-latency"},
		{[]string{"edge", "-checkpoint-dir", "/nonexistent", "-shards", "3"}, "-checkpoint-dir"},
		{[]string{"edge", "-shards", "3"}, "-shards"},
		{[]string{"-async"}, "-async"},
		{[]string{"-root"}, "-root"},
		{[]string{"-edge"}, "-edge"},
	} {
		var out bytes.Buffer
		r, _, err := cli.Parse("flserver", commands, tt.args, &out)
		if err == nil || r != nil {
			t.Errorf("%q parsed", tt.args)
			continue
		}
		if want := "flag provided but not defined: " + tt.undefined; !strings.Contains(out.String(), want) {
			t.Errorf("%q: output lacks %q:\n%s", tt.args, want, out.String())
		}
	}
	for _, args := range [][]string{{"bogus"}, {"-clients", "3", "async"}} {
		if _, _, err := cli.Parse("flserver", commands, args, &bytes.Buffer{}); err == nil {
			t.Errorf("%q parsed", args)
		}
	}
}

// config returns the engine config r builds from its flags, with the
// fields that hold functions, data or live state cleared so whole configs
// compare.
func config(t *testing.T, r cli.Runner) (any, error) {
	t.Helper()
	switch c := r.(type) {
	case *syncCmd:
		cfg, err := c.config()
		cfg.NewModel, cfg.Test, cfg.Fault, cfg.Scenario = nil, nil, nil, nil
		return cfg, err
	case *asyncCmd:
		cfgs, err := c.configs()
		for i := range cfgs {
			cfgs[i].NewModel, cfgs[i].Test, cfgs[i].Logf = nil, nil, nil
		}
		return cfgs, err
	case *rootCmd:
		cfg := c.cfg
		cfg.Logf = nil
		return cfg, nil
	case *edgeCmd:
		cfg, err := c.config()
		cfg.Logf = nil
		return cfg, err
	case *doctorCmd:
		return *c, nil
	}
	t.Fatalf("unknown subcommand %T", r)
	return nil, nil
}

// TestFlagsLandInConfig: every flag reaches the field of the engine config
// its subcommand builds, and the defaults are what the engine has always
// been given.
func TestFlagsLandInConfig(t *testing.T) {
	dir := t.TempDir()
	sel := core.DefaultConfig()
	sel.K, sel.Tau, sel.Compression.WarmupRounds = 2, 0.25, 3
	sel.ScaleRatiosForModel(cli.Task{ImgSize: 12}.NewModel()().NumParams())
	def := core.DefaultConfig()
	def.K, def.Tau, def.Compression.WarmupRounds = 2, 0.5, 5
	def.ScaleRatiosForModel(cli.Task{ImgSize: 16}.NewModel()().NumParams())

	for _, tt := range []struct {
		args []string
		want any
	}{
		{[]string{"-samples", "200"}, rpc.ServerConfig{
			Addr: ":7070", NumClients: 3, Rounds: 30, Cfg: def, EvalEvery: 1,
			StragglerTimeout: 30 * time.Second, MinClients: 1, MaxUpdateNorm: 10,
		}},
		{[]string{"-addr", "127.0.0.1:9", "-clients", "5", "-rounds", "7", "-k", "2", "-tau", "0.25",
			"-warmup", "3", "-imgsize", "12", "-samples", "200", "-straggler-timeout", "2s", "-min-clients", "2",
			"-checkpoint-dir", dir, "-resume", "-max-update-norm", "4", "-shards", "3", "-negotiate"},
			rpc.ServerConfig{
				Addr: "127.0.0.1:9", NumClients: 5, Rounds: 7, Cfg: sel, EvalEvery: 1,
				StragglerTimeout: 2 * time.Second, MinClients: 2, CheckpointDir: dir, Resume: true,
				MaxUpdateNorm: 4, Shards: 3, Negotiation: negotiation(),
			}},
		{[]string{"async", "-samples", "200", "-buffer-k", "3", "-max-staleness", "2"}, []session.AsyncConfig{{
			Name: session.DefaultSession, EvalEvery: 1, K: 3, MaxStaleness: 2, Eta: 1, Versions: 30,
			MaxClients: 3, MaxUpdateNorm: 10,
		}}},
		{[]string{"async", "-samples", "200", "-addr", ":9", "-sessions", "eu, us", "-clients", "5",
			"-versions", "4", "-eta", "0.5", "-max-update-norm", "2", "-shards", "2", "-checkpoint-dir", dir, "-resume"},
			[]session.AsyncConfig{
				{Name: "eu", EvalEvery: 1, K: 3, Eta: 0.5, Versions: 4, MaxClients: 5, MaxUpdateNorm: 2, Shards: 2,
					CheckpointDir: filepath.Join(dir, "eu"), Resume: true},
				{Name: "us", EvalEvery: 1, K: 3, Eta: 0.5, Versions: 4, MaxClients: 5, MaxUpdateNorm: 2, Shards: 2,
					CheckpointDir: filepath.Join(dir, "us"), Resume: true},
			}},
		{[]string{"root"}, edge.RootConfig{
			ClientAddr: ":7070", EdgeAddr: ":7071", NumEdges: 2, Clients: 3, Rounds: 30, Dim: 20000,
			HeartbeatTimeout: edge.DefaultHeartbeatTimeout,
		}},
		{[]string{"root", "-addr", ":1", "-edge-addr", ":2", "-edges", "3", "-clients", "16", "-rounds", "4",
			"-dim", "2000", "-heartbeat-timeout", "1s", "-checkpoint-dir", dir, "-resume"},
			edge.RootConfig{
				ClientAddr: ":1", EdgeAddr: ":2", NumEdges: 3, Clients: 16, Rounds: 4, Dim: 2000,
				HeartbeatTimeout: time.Second, CheckpointDir: dir, Resume: true,
			}},
		{[]string{"edge", "-addr", ":3", "-root-addr", "h:7071", "-id", "2", "-region", "eu", "-dim", "2000",
			"-max-update-norm", "4", "-heartbeat-interval", "100ms", "-retries", "5", "-seed", "7", "-negotiate"},
			edge.EdgeConfig{
				ID: 2, ClientAddr: ":3", RootAddr: "h:7071", Region: "eu", Dim: 2000, MaxUpdateNorm: 4,
				HeartbeatInterval: 100 * time.Millisecond, MaxRetries: 5, Seed: 7, Negotiation: negotiation(),
			}},
		{[]string{"doctor", "-checkpoint-dir", dir, "-event-log", "e.jsonl"}, doctorCmd{dir: dir, events: "e.jsonl"}},
	} {
		var out bytes.Buffer
		r, _, err := cli.Parse("flserver", commands, tt.args, &out)
		if err != nil {
			t.Fatalf("%q: %v\n%s", tt.args, err, out.String())
		}
		got, err := config(t, r)
		if err != nil {
			t.Fatalf("%q: %v", tt.args, err)
		}
		if !reflect.DeepEqual(got, tt.want) {
			t.Errorf("%q:\n got %+v\nwant %+v", tt.args, got, tt.want)
		}
	}
}

// TestSyncConfigParts covers what TestFlagsLandInConfig clears: the task,
// the fault injector, the scenario and the flag pairs that need each other.
func TestSyncConfigParts(t *testing.T) {
	parse := func(args ...string) (rpc.ServerConfig, error) {
		t.Helper()
		r, _, err := cli.Parse("flserver", commands, args, &bytes.Buffer{})
		if err != nil {
			t.Fatalf("%q: %v", args, err)
		}
		return r.(*syncCmd).config()
	}
	cfg, err := parse("-seed", "9", "-imgsize", "12", "-samples", "300", "-fault-drop", "0.5", "-fault-seed", "4",
		"-scenario", "../../examples/scenarios/diurnal.json", "-clients", "4")
	if err != nil {
		t.Fatal(err)
	}
	if n := cfg.NewModel().NumParams(); n != (cli.Task{Seed: 9, ImgSize: 12}).NewModel()().NumParams() {
		t.Errorf("model has %d params", n)
	}
	if cfg.Test.Len() != 60 {
		t.Errorf("held-out split has %d samples, want 60 of 300", cfg.Test.Len())
	}
	if f := cfg.Fault; f == nil || f.DropProb != 0.5 || f.Seed != 4 {
		t.Errorf("fault config %+v", f)
	}
	if cfg.Scenario == nil {
		t.Error("-scenario built no fleet")
	}
	for _, args := range [][]string{
		{"-scenario-log", "s.jsonl"}, // needs -scenario
		{"-assign-log", "a.jsonl"},   // needs -negotiate
		{"-scenario", "/nonexistent.json"},
		{"-imgsize", "8"},
	} {
		if _, err := parse(append(args, "-samples", "100")...); err == nil {
			t.Errorf("%q accepted", args)
		}
	}
	r, _, _ := cli.Parse("flserver", commands, []string{"edge"}, &bytes.Buffer{})
	if _, err := r.(*edgeCmd).config(); err == nil {
		t.Error("edge without -root-addr accepted")
	}
}
