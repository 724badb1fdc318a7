package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestCheck runs the checker over testdata/mod, whose internal/lib has one
// declaration for each case: called from cmd/ (passes), never called,
// called only from a _test.go file, a method only a test calls (all three
// fail), a method fmt reaches through fmt.Stringer (passes) and an
// allowlisted name (passes, and fails again once the list goes stale).
func TestCheck(t *testing.T) {
	allow := func(lines ...string) string {
		path := filepath.Join(t.TempDir(), "allow.txt")
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	names := func(problems []string) []string {
		var out []string
		for _, p := range problems {
			if f := strings.Fields(p); len(f) > 1 {
				out = append(out, f[1])
			}
		}
		return out
	}

	got, err := check("testdata/mod", allow("# comment", "internal/lib.Allowed exercised by this test"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"internal/lib.Unused", "internal/lib.OnlyTest", "internal/lib.T.TestOnly"}
	if !reflect.DeepEqual(names(got), want) {
		t.Fatalf("reported %q, want %q", got, want)
	}

	path := allow("internal/lib.Allowed kept", "internal/lib.Used has a caller")
	got, err = check("testdata/mod", path)
	if err != nil {
		t.Fatal(err)
	}
	if stale := got[len(got)-1]; stale != path+": internal/lib.Used is referenced or gone; drop its line" {
		t.Fatalf("stale allowlist line not reported: %q", got)
	}

	if _, err := check("testdata/mod", allow("internal/lib.Allowed")); err == nil {
		t.Fatal("an allowlist line with no reason was accepted")
	}
	many := make([]string, maxAllowed+1)
	for i := range many {
		many[i] = "internal/lib.Name" + strings.Repeat("x", i) + " reason"
	}
	if _, err := check("testdata/mod", allow(many...)); err == nil {
		t.Fatalf("an allowlist of %d names was accepted", len(many))
	}
}
