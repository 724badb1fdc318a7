// Package fl implements the federated-learning substrate: clients with
// local trainers (plain SGD, FedProx proximal correction, SCAFFOLD control
// variates), server-side aggregation strategies (FedAvg, FedAdam, SCAFFOLD,
// FedAsync, FedBuff), and three protocol engines — the synchronous
// round-based engine with a maximum-wait dropout rule and the event-driven
// asynchronous engine with staleness-aware weighting that the paper
// studies, plus FedAT latency tiers (related work).
//
// AdaFL (internal/core) plugs into these engines through the RoundPlanner
// and AsyncGate hooks.
package fl

import (
	"fmt"
	"io"

	"adafl/internal/compress"
	"adafl/internal/dataset"
	"adafl/internal/device"
	"adafl/internal/netsim"
	"adafl/internal/nn"
	"adafl/internal/stats"
)

// Update is one client contribution as the server sees it.
type Update struct {
	// Client is the contributing client's index.
	Client int
	// Delta is the (possibly compressed) local model delta, Δ = w_local −
	// w_global_at_download.
	Delta *compress.Sparse
	// Weight is the client's data-proportion weight n_i/n.
	Weight float64
	// Staleness counts how many global versions elapsed between the
	// client's download and the server's receipt (async only; 0 in sync).
	Staleness int
	// CtrlDelta carries SCAFFOLD's control-variate update when present.
	CtrlDelta []float64
}

// Participation is a planner's decision for one client in one round.
type Participation struct {
	Client int
	// Ratio is the requested uplink compression ratio (1 = uncompressed).
	Ratio float64
	// Codec, when non-nil, overrides the client's own codec for this round
	// — the negotiated per-round codec assignment. The planner owns the
	// instance (and its state) and must hand each client its own.
	Codec compress.Codec
}

// RoundStats is one row of an engine's training history.
type RoundStats struct {
	Round int
	// Time is the simulated wall-clock time at the end of the round.
	Time float64
	// TestAcc and TestLoss are measured on the held-out set (NaN when the
	// round was not an evaluation round).
	TestAcc, TestLoss float64
	// Participants is how many clients were asked to contribute.
	Participants int
	// Received is how many updates actually arrived in time.
	Received int
	// UplinkBytes and DownlinkBytes are cumulative communication totals.
	UplinkBytes, DownlinkBytes int64
	// Updates is the cumulative count of client→server updates applied.
	Updates int
}

// History collects RoundStats and derives the table metrics.
type History struct {
	Rows []RoundStats
}

// Add appends a row.
func (h *History) Add(r RoundStats) { h.Rows = append(h.Rows, r) }

// FinalAcc returns the last recorded test accuracy (scanning backwards
// past non-eval rounds), or 0 if none was recorded.
func (h *History) FinalAcc() float64 {
	for i := len(h.Rows) - 1; i >= 0; i-- {
		if !isNaN(h.Rows[i].TestAcc) {
			return h.Rows[i].TestAcc
		}
	}
	return 0
}

// BestAcc returns the highest recorded test accuracy.
func (h *History) BestAcc() float64 {
	best := 0.0
	for _, r := range h.Rows {
		if !isNaN(r.TestAcc) && r.TestAcc > best {
			best = r.TestAcc
		}
	}
	return best
}

// TotalUpdates returns the final cumulative update count.
func (h *History) TotalUpdates() int {
	if len(h.Rows) == 0 {
		return 0
	}
	return h.Rows[len(h.Rows)-1].Updates
}

func isNaN(x float64) bool { return x != x }

// WriteCSV emits the history as CSV with one row per round:
// round,time,acc,loss,participants,received,uplink,downlink,updates.
// NaN accuracy/loss cells (non-evaluation rounds) are left empty.
func (h *History) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "round,time,test_acc,test_loss,participants,received,uplink_bytes,downlink_bytes,updates"); err != nil {
		return err
	}
	for _, r := range h.Rows {
		acc, loss := "", ""
		if !isNaN(r.TestAcc) {
			acc = fmt.Sprintf("%g", r.TestAcc)
		}
		if !isNaN(r.TestLoss) {
			loss = fmt.Sprintf("%g", r.TestLoss)
		}
		if _, err := fmt.Fprintf(w, "%d,%g,%s,%s,%d,%d,%d,%d,%d\n",
			r.Round, r.Time, acc, loss, r.Participants, r.Received,
			r.UplinkBytes, r.DownlinkBytes, r.Updates); err != nil {
			return err
		}
	}
	return nil
}

// Federation bundles everything both engines need: the clients, the
// network, the test set and the model factory.
type Federation struct {
	Clients []*Client
	Net     *netsim.Network
	Test    *dataset.Dataset
	// NewModel builds the globally shared architecture; all clients and
	// the server derive their models from the same seed.
	NewModel func() *nn.Model
	// EvalBatch bounds evaluation batch size.
	EvalBatch int
}

// TotalSamples returns the number of training samples across all clients.
func (f *Federation) TotalSamples() int {
	n := 0
	for _, c := range f.Clients {
		n += c.Data.Len()
	}
	return n
}

// Weights returns the data-proportion weights n_i/n for all clients.
func (f *Federation) Weights() []float64 {
	total := float64(f.TotalSamples())
	w := make([]float64, len(f.Clients))
	for i, c := range f.Clients {
		if total > 0 {
			w[i] = float64(c.Data.Len()) / total
		}
	}
	return w
}

// NewFederation builds a federation over pre-partitioned client datasets.
// Clients get identical training hyperparameters and their own RNG streams;
// devices and codecs can be customised afterwards.
func NewFederation(parts []*dataset.Dataset, test *dataset.Dataset, net *netsim.Network,
	newModel func() *nn.Model, cfg TrainConfig, seed uint64) *Federation {
	if net.NumClients() != len(parts) {
		panic("fl: network size does not match client count")
	}
	root := stats.NewRNG(seed)
	f := &Federation{Net: net, Test: test, NewModel: newModel, EvalBatch: 64}
	for i, p := range parts {
		f.Clients = append(f.Clients, NewClient(i, p, newModel(), cfg, device.RaspberryPi4, root.Split()))
	}
	return f
}

// Evaluate measures (accuracy, loss) of the given parameter vector on the
// federation's test set using a scratch model.
func (f *Federation) Evaluate(params []float64) (acc, loss float64) {
	m := f.NewModel()
	m.SetParamVector(params)
	return m.EvaluateBatched(f.Test.X, f.Test.Labels, f.EvalBatch)
}
