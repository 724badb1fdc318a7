package session

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"adafl/internal/checkpoint"
	"adafl/internal/core"
	"adafl/internal/edge"
	"adafl/internal/rpc"
)

// TestCheckpointStartPolicy: the sync server, the async session and the
// root open their checkpoint directory through one policy. None starts
// without Resume on a directory that already holds a chain — a sync server
// used to append to it, so a crash before its first join let -resume restore
// the previous session's model — and each starts fresh, saying so, on an
// empty directory with Resume. An engine that gets past the policy is killed
// before it waits for anyone.
func TestCheckpointStartPolicy(t *testing.T) {
	env := newTestEnv(1, 40, 12, 4, 61)
	type logFn = func(string, ...interface{})
	engines := []struct {
		name string
		// start returns the error the engine's open path produced, nil once
		// it is past it.
		start func(dir string, resume bool, logf logFn) error
	}{
		{"sync", func(dir string, resume bool, logf logFn) error {
			srv, err := rpc.NewServer(rpc.ServerConfig{
				Addr: "127.0.0.1:0", NumClients: 1, Rounds: 3, Cfg: core.DefaultConfig(),
				NewModel: env.newModel, CheckpointDir: dir, Resume: resume, Logf: logf,
			})
			if err != nil {
				return err
			}
			srv.Kill()
			if _, err := srv.Run(); !errors.Is(err, rpc.ErrServerKilled) {
				return err
			}
			return nil
		}},
		{"async", func(dir string, resume bool, logf logFn) error {
			a, err := NewAsync(AsyncConfig{
				NewModel: env.newModel, K: 1, Versions: 3,
				CheckpointDir: dir, Resume: resume, Logf: logf,
			})
			if err == nil {
				a.tree.Close()
			}
			return err
		}},
		{"root", func(dir string, resume bool, logf logFn) error {
			root, err := edge.NewRoot(edge.RootConfig{
				NumEdges: 1, Clients: 1, Rounds: 3, Dim: 8,
				CheckpointDir: dir, Resume: resume, Logf: logf,
			})
			if err != nil {
				return err
			}
			root.Kill()
			if _, err := root.Run(); !errors.Is(err, edge.ErrRootKilled) {
				return err
			}
			return nil
		}},
	}
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			var mu sync.Mutex
			var logged []string
			logf := func(format string, args ...interface{}) {
				mu.Lock()
				logged = append(logged, fmt.Sprintf(format, args...))
				mu.Unlock()
			}

			// Some earlier session's chain; whose does not matter to the policy.
			populated := t.TempDir()
			w, err := checkpoint.NewDeltaWriter(populated, checkpoint.DeltaOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := w.Write([]checkpoint.Section{{Name: "global", Data: make([]byte, 64)}}); err != nil {
				t.Fatal(err)
			}
			err = eng.start(populated, false, logf)
			if err == nil || !strings.Contains(err.Error(), "already holds a chain") {
				t.Fatalf("populated directory without Resume: err = %v, want a refusal", err)
			}
			if epochs, _ := checkpoint.DeltaEpochs(populated); len(epochs) != 1 {
				t.Fatalf("the refused start touched the chain: %v", epochs)
			}

			if err := eng.start(t.TempDir(), true, logf); err != nil {
				t.Fatalf("empty directory with Resume: %v", err)
			}
			mu.Lock()
			defer mu.Unlock()
			if !strings.Contains(strings.Join(logged, "\n"), "starting fresh") {
				t.Fatalf("no fresh-start line among:\n%s", strings.Join(logged, "\n"))
			}
		})
	}
}
