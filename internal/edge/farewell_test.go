package edge

import (
	"net"
	"testing"
	"time"

	"adafl/internal/rpc"
)

// TestEdgeAdmittedDuringShutdownGetsFarewell: an edge whose registration
// lands while the root shuts down — admitted and welcomed, the roster
// closing before its reader starts — is sent the session's farewell like
// every other edge, not a cut socket. The in-memory pipe holds the welcome
// until the edge reads it, which pins that order.
func TestEdgeAdmittedDuringShutdownGetsFarewell(t *testing.T) {
	root, err := NewRoot(RootConfig{NumEdges: 2, Clients: 4, Rounds: 1, Dim: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Kill()
	a, b := net.Pipe()
	admitted := make(chan struct{})
	go func() {
		root.admitEdge(rpc.NewBinaryConn(a, nil), &rpc.Envelope{Type: rpc.MsgEdgeHello, ClientID: 1, NumSamples: 2, Info: "edge-1"})
		close(admitted)
	}()
	for root.roster.Peer(1) == nil { // installed; its welcome waits on the pipe
		time.Sleep(time.Millisecond)
	}
	shut := make(chan struct{})
	go func() {
		root.roster.Shutdown("session done", time.Second)
		close(shut)
	}()
	<-root.roster.Done()

	edge := rpc.NewBinaryConn(b, nil)
	if e, err := edge.Recv(); err != nil || e.Type != rpc.MsgWelcome {
		t.Fatalf("first frame: %v, %v; want the welcome", e, err)
	}
	<-admitted
	e, err := edge.Recv()
	if err != nil || e.Type != rpc.MsgShutdown || e.Info != "session done" {
		t.Fatalf("after the welcome: %+v, %v; want the farewell", e, err)
	}
	edge.Close()
	<-shut
}
