package fl

import (
	"testing"

	"adafl/internal/netsim"
)

// Failure-injection tests: lossy links, hopeless clients, and pathological
// configurations must degrade gracefully, never wedge or panic.

func TestSyncEngineSurvivesLossyLinks(t *testing.T) {
	f := newTestFederation(5, true, 50)
	for i := 0; i < 5; i++ {
		l := f.Net.Link(i)
		l.LossProb = 0.3
		f.Net.SetLink(i, l)
	}
	e := NewSyncEngine(f, FedAvg{}, NewFixedRatePlanner(1, 1, 51), 52)
	e.MaxWait = 10
	e.EvalEvery = 5
	e.RunRounds(20)
	last := e.Hist.Rows[len(e.Hist.Rows)-1]
	if last.Received >= last.Participants*20 {
		t.Fatal("lossy links dropped nothing")
	}
	if e.TotalUpdates() == 0 {
		t.Fatal("no update ever survived 30% loss")
	}
	// It should still learn, just slower (insight 1 of the paper).
	if e.Hist.FinalAcc() < 0.3 {
		t.Fatalf("accuracy %v under loss", e.Hist.FinalAcc())
	}
}

func TestSyncEngineAllClientsDropped(t *testing.T) {
	f := newTestFederation(3, true, 53)
	for i := 0; i < 3; i++ {
		f.Net.SetLink(i, netsim.Link{UpBps: 1, DownBps: 1, LatencyS: 100})
	}
	e := NewSyncEngine(f, FedAvg{}, NewFixedRatePlanner(1, 1, 54), 55)
	e.MaxWait = 0.001
	before := append([]float64(nil), e.Global...)
	e.RunRound()
	// Nothing arrived: the model must be unchanged and the clock must
	// still advance by the deadline.
	for i := range before {
		if e.Global[i] != before[i] {
			t.Fatal("empty round changed the model")
		}
	}
	if e.Now() != 0.001 {
		t.Fatalf("empty round advanced clock to %v", e.Now())
	}
}

func TestAsyncEngineSurvivesDownlinkLoss(t *testing.T) {
	f := newTestFederation(3, true, 56)
	for i := 0; i < 3; i++ {
		l := f.Net.Link(i)
		l.LossProb = 0.5
		f.Net.SetLink(i, l)
	}
	e := NewAsyncEngine(f, FedAsync{Alpha: 0.5}, AlwaysUpload{})
	e.EvalInterval = 5
	e.Run(20)
	// Half of all transfers vanish, but retries keep the system alive.
	if e.TotalUpdates() == 0 {
		t.Fatal("no update survived")
	}
}

func TestAsyncEngineAllInactive(t *testing.T) {
	f := newTestFederation(2, true, 57)
	e := NewAsyncEngine(f, FedAsync{Alpha: 0.5}, AlwaysUpload{})
	e.Inactive = map[int]bool{0: true, 1: true}
	e.EvalInterval = 5
	e.Run(10) // must terminate despite no client activity
	if e.TotalUpdates() != 0 {
		t.Fatal("inactive clients produced updates")
	}
	if len(e.Hist.Rows) == 0 {
		t.Fatal("evaluation events did not run")
	}
}

func TestSyncEngineZeroParticipants(t *testing.T) {
	f := newTestFederation(2, true, 58)
	e := NewSyncEngine(f, FedAvg{}, emptyPlanner{}, 59)
	e.RunRounds(3) // must not panic or divide by zero
	if e.TotalUpdates() != 0 {
		t.Fatal("phantom updates")
	}
}

type emptyPlanner struct{}

func (emptyPlanner) Plan(int, *SyncEngine) []Participation { return nil }

func TestFedBuffPartialBufferAtShutdown(t *testing.T) {
	// A FedBuff run that ends with a partially filled buffer must simply
	// leave the tail unapplied (matching the algorithm's semantics).
	f := newTestFederation(3, true, 60)
	slowDevices(f)
	buff := NewFedBuff(1000, 1) // never fills within the horizon
	e := NewAsyncEngine(f, buff, AlwaysUpload{})
	e.EvalInterval = 5
	e.Run(10)
	if e.Version != 0 {
		t.Fatalf("version advanced %d times with an unfillable buffer", e.Version)
	}
	if buff.buffered == 0 {
		t.Fatal("buffer empty despite received updates")
	}
}
