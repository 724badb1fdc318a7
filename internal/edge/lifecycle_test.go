package edge

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"adafl/internal/leakcheck"
)

// TestTreeRostersLeakNothing takes a root, two edges and a client fleet out
// of every exit the two engines have, in three sessions, and checks after
// each that every connection either tier accepted was closed and the
// goroutine count is back at its baseline:
//
//	clean      root finishes its rounds    edges are shut down by it
//	root-kill  Root.Kill mid-session       edges lose their root, no retries: the error exit
//	edge-kill  both edges killed           root cannot reroute: the error exit
func TestTreeRostersLeakNothing(t *testing.T) {
	const (
		edges, clients, rounds = 2, 12, 5
		dim, nnz               = 64, 8
	)
	for _, exit := range []string{"clean", "root-kill", "edge-kill"} {
		t.Run(exit, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			var root *Root
			var es []*Edge
			root, err := NewRoot(RootConfig{
				NumEdges: edges, Clients: clients, Rounds: rounds, Dim: dim,
				HeartbeatTimeout: 2 * time.Second, QuorumTimeout: 10 * time.Second,
				RerouteGrace: 50 * time.Millisecond,
				OnRound: func(round int, _ []float64) {
					if exit == "root-kill" && round == 1 {
						root.Kill()
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			edgeLn, bootLn := leakcheck.Wrap(root.edgeLn), leakcheck.Wrap(root.clientLn)
			root.edgeLn, root.clientLn = edgeLn, bootLn
			lns := []*leakcheck.Listener{edgeLn, bootLn}
			rootCh := make(chan error, 1)
			go func() {
				_, err := root.Run()
				rootCh <- err
			}()

			edgeCh := make(chan error, edges)
			for i := 0; i < edges; i++ {
				e, err := NewEdge(EdgeConfig{
					ID: i, RootAddr: root.EdgeAddr(), Dim: dim,
					HeartbeatInterval: 20 * time.Millisecond, UpdateTimeout: 5 * time.Second,
					OnSelect: func(round int) {
						if exit == "edge-kill" && round == 1 {
							for _, e := range es {
								go e.Kill()
							}
						}
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				ln := leakcheck.Wrap(e.ln)
				e.ln = ln
				lns = append(lns, ln)
				es = append(es, e)
			}
			for _, e := range es {
				go func(e *Edge) {
					_, err := e.Run()
					edgeCh <- err
				}(e)
			}
			clientsCh := make(chan error, 1)
			go func() {
				clientsCh <- RunClients(ClientsConfig{
					Bootstrap: root.BootstrapAddr(), Lo: 0, Hi: clients,
					Dim: dim, Nnz: nnz, Seed: 5,
					MaxRetries: 3, RetryBackoff: 5 * time.Millisecond, DialTimeout: time.Second,
				})
			}()

			rootErr := <-rootCh
			var edgeErrs []error
			for range es {
				edgeErrs = append(edgeErrs, <-edgeCh)
			}
			clientsErr := <-clientsCh
			switch exit {
			case "clean":
				if rootErr != nil || edgeErrs[0] != nil || edgeErrs[1] != nil || clientsErr != nil {
					t.Fatalf("clean session: root %v, edges %v, clients %v", rootErr, edgeErrs, clientsErr)
				}
			case "root-kill":
				if rootErr != ErrRootKilled {
					t.Fatalf("root: %v, want ErrRootKilled", rootErr)
				}
				for _, err := range edgeErrs {
					if err == nil || errors.Is(err, ErrEdgeKilled) {
						t.Errorf("edge after its root died: %v, want the link error", err)
					}
				}
			case "edge-kill":
				if rootErr == nil || rootErr == ErrRootKilled {
					t.Fatalf("root with no edge left: %v, want a reroute error", rootErr)
				}
				for _, err := range edgeErrs {
					if err != ErrEdgeKilled {
						t.Errorf("killed edge: %v", err)
					}
				}
			}
			leakcheck.Check(t, baseline, lns...)
		})
	}
}
