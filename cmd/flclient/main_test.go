package main

import (
	"bytes"
	"flag"
	"slices"
	"strings"
	"testing"

	"adafl/cmd/internal/cli"
)

// TestFlagSets pins both subcommands' flags: the async loop reports no
// bandwidth into a score, so it takes neither -downbps nor -scenario, and
// the sync loop has no session or fixed ratio.
func TestFlagSets(t *testing.T) {
	common := []string{"addr", "batch", "clients", "codec", "fault-bandwidth", "fault-cut-after", "fault-drop",
		"fault-jitter", "fault-latency", "fault-partition", "fault-seed", "id", "iid", "imgsize", "lr",
		"metrics-addr", "retries", "retry-backoff", "samples", "seed", "steps", "throttle", "upbps"}
	want := map[string][]string{
		"":      append(slices.Clone(common), "downbps", "scenario"),
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
	for _, args := range [][]string{{"async", "-downbps", "1"}, {"async", "-scenario", "s.json"}, {"-async"}, {"-session", "eu"}} {
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
