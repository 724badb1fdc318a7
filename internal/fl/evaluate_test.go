package fl

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"adafl/internal/stats"
)

// evalParams returns parameter vectors an evaluation sees in a run and a
// few it should not: the initial model, the globals after each of three
// rounds, a rescaled and a noisy copy, and one with a NaN weight.
func evalParams(f *Federation) [][]float64 {
	e := NewSyncEngine(f, FedAvg{}, NewFixedRatePlanner(1, 1, 71), 72)
	e.EvalEvery = 0
	out := [][]float64{append([]float64(nil), e.Global...)}
	for r := 0; r < 3; r++ {
		e.RunRound()
		out = append(out, append([]float64(nil), e.Global...))
	}
	rng := stats.NewRNG(73)
	scaled, noisy, nan := make([]float64, len(e.Global)), make([]float64, len(e.Global)), append([]float64(nil), e.Global...)
	for i, w := range e.Global {
		scaled[i] = 4 * w
		noisy[i] = w + 0.5*rng.Norm()
	}
	nan[len(nan)/3] = math.NaN()
	return append(out, scaled, noisy, nan)
}

// freshEvaluate is Evaluate as a model built for the one call.
func freshEvaluate(f *Federation, params []float64) (acc, loss float64) {
	m := f.NewModel()
	m.SetParamVector(params)
	return m.EvaluateBatched(f.Test.X, f.Test.Labels, f.EvalBatch)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestEvaluateReusedModelMatchesFresh: the one evaluation model reloaded
// for each of a sequence of vectors answers as a fresh model would, so no
// state of one call reaches the next. The sequence runs forwards and back.
func TestEvaluateReusedModelMatchesFresh(t *testing.T) {
	f := newTestFederation(4, false, 74)
	params := evalParams(f)
	for pass := 0; pass < 2; pass++ {
		for j := range params {
			k := j
			if pass == 1 {
				k = len(params) - 1 - j
			}
			acc, loss := f.Evaluate(params[k])
			wantAcc, wantLoss := freshEvaluate(f, params[k])
			if !sameBits(acc, wantAcc) || !sameBits(loss, wantLoss) {
				t.Fatalf("pass %d vector %d: (%v, %v), fresh model (%v, %v)", pass, k, acc, loss, wantAcc, wantLoss)
			}
		}
	}
}

// TestEvaluateConcurrentCallers: goroutines evaluating different vectors
// at once each get their own vector's answer. Run under -race.
func TestEvaluateConcurrentCallers(t *testing.T) {
	f := newTestFederation(3, true, 75)
	params := evalParams(f)
	type result struct{ acc, loss float64 }
	want := make([]result, len(params))
	for k, p := range params {
		want[k].acc, want[k].loss = freshEvaluate(f, p)
	}
	const callers = 4
	errs := make(chan error, callers*len(params))
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range params {
				k := (j + g) % len(params)
				acc, loss := f.Evaluate(params[k])
				if !sameBits(acc, want[k].acc) || !sameBits(loss, want[k].loss) {
					errs <- fmt.Errorf("caller %d vector %d: (%v, %v), want (%v, %v)", g, k, acc, loss, want[k].acc, want[k].loss)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// BenchmarkFederationEvaluate times one evaluation of the simulator's MLP
// on the test federation's 160-sample test set.
func BenchmarkFederationEvaluate(b *testing.B) {
	f := newTestFederation(2, true, 76)
	params := f.NewModel().ParamVector()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Evaluate(params)
	}
}
