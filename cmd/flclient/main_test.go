package main

import (
	"bytes"
	"flag"
	"slices"
	"strings"
	"testing"

	"adafl/cmd/internal/cli"
	"adafl/internal/netsim"
)

// TestFlagSets pins both subcommands' flags: the async loop reports no
// bandwidth into a score, so it takes no -scenario, and the sync loop has
// no session or fixed ratio.
func TestFlagSets(t *testing.T) {
	common := []string{"addr", "batch", "clients", "codec", "fault-cut-after", "fault-partition", "id", "iid",
		"imgsize", "link", "lr", "metrics-addr", "retries", "retry-backoff", "samples", "seed", "steps"}
	want := map[string][]string{
		"":      append(slices.Clone(common), "scenario"),
		"async": append(slices.Clone(common), "async-ratio", "session"),
	}
	for _, c := range commands {
		fs := flag.NewFlagSet(c.Name, flag.ContinueOnError)
		c.Flags(fs)
		var got []string
		fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
		slices.Sort(want[c.Name])
		if !slices.Equal(got, want[c.Name]) {
			t.Errorf("flclient %s flags:\n got %v\nwant %v", c.Name, got, want[c.Name])
		}
	}
	for _, args := range [][]string{{"async", "-scenario", "s.json"}, {"-async"}, {"-session", "eu"}} {
		var out bytes.Buffer
		if _, _, err := cli.Parse("flclient", commands, args, &out); err == nil ||
			!strings.Contains(out.String(), "flag provided but not defined") {
			t.Errorf("%q parsed", args)
		}
	}
}

// TestAsyncConfig: flclient async builds an async ClientConfig from the
// shared task, with its session and ratio.
func TestAsyncConfig(t *testing.T) {
	r, _, err := cli.Parse("flclient", commands, []string{"async", "-id", "2", "-clients", "4", "-samples", "200",
		"-session", "eu", "-async-ratio", "4", "-codec", "identity"}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := r.(*clientCmd).config()
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Async || cfg.Session != "eu" || cfg.AsyncRatio != 4 || cfg.Codec != "identity" || cfg.ID != 2 {
		t.Errorf("config %+v", cfg)
	}
	// 160 training samples, two shards of 20 per client.
	if cfg.Data.Len() != 40 {
		t.Errorf("client shard has %d samples, want 40", cfg.Data.Len())
	}
	r, _, _ = cli.Parse("flclient", commands, []string{"-id", "3", "-clients", "3", "-samples", "100"}, &bytes.Buffer{})
	if _, err := r.(*clientCmd).config(); err == nil {
		t.Error("id 3 of 3 accepted")
	}
}

// TestNoSamplesRefused: -samples 0 or below is an error naming the flag,
// not a panic in tensor.New; and so is a set too small to give each of
// -clients its shards (a panic in the partitioner) or its IID share (an
// empty client that panics at its first batch), one line naming both.
func TestNoSamplesRefused(t *testing.T) {
	for _, c := range []struct {
		args  []string
		names []string
	}{
		{[]string{"-samples=0"}, []string{"-samples"}},
		{[]string{"async", "-samples=-4"}, []string{"-samples"}},
		{[]string{"-samples", "10", "-clients", "8"}, []string{"-samples", "-clients"}},
		{[]string{"async", "-samples", "10", "-clients", "8"}, []string{"-samples", "-clients"}},
		{[]string{"-iid", "-clients", "3", "-samples", "3", "-id", "0"}, []string{"-samples", "-clients"}},
	} {
		r, _, err := cli.Parse("flclient", commands, c.args, &bytes.Buffer{})
		if err != nil {
			t.Fatal(err)
		}
		_, err = r.(*clientCmd).config()
		if err == nil || strings.Contains(err.Error(), "\n") {
			t.Errorf("flclient %q: %v, want a one-line error", c.args, err)
			continue
		}
		for _, name := range c.names {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("flclient %q: %v does not name %s", c.args, err, name)
			}
		}
	}
}

// TestLinkFlag: -link paces the client on a preset and reports the
// preset's rates; without it the client is unpaced and reports wifi's.
func TestLinkFlag(t *testing.T) {
	for _, tt := range []struct {
		args  []string
		paced bool
		want  netsim.Link
	}{
		{[]string{"-samples", "200"}, false, netsim.WiFiLink},
		{[]string{"-samples", "200", "-link", "lte"}, true, netsim.LTELink},
		{[]string{"async", "-samples", "200", "-link", "constrained", "-fault-cut-after", "9"}, true, netsim.ConstrainedLink},
	} {
		r, _, err := cli.Parse("flclient", commands, tt.args, &bytes.Buffer{})
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := r.(*clientCmd).config()
		if err != nil {
			t.Fatalf("%q: %v", tt.args, err)
		}
		if cfg.UpBps != tt.want.UpBps || cfg.DownBps != tt.want.DownBps {
			t.Errorf("%q: reports %v/%v B/s", tt.args, cfg.UpBps, cfg.DownBps)
		}
		if paced := cfg.Fault != nil && cfg.Fault.Link != nil; paced != tt.paced || paced && *cfg.Fault.Link != tt.want {
			t.Errorf("%q: fault config %+v", tt.args, cfg.Fault)
		}
	}
	r, _, _ := cli.Parse("flclient", commands, []string{"-link", "dialup"}, &bytes.Buffer{})
	if _, err := r.(*clientCmd).config(); err == nil || !strings.Contains(err.Error(), "-link") {
		t.Errorf("-link dialup: %v", err)
	}
}
