package main

import (
	"fmt"
	"sync"
	"time"

	"adafl/internal/dataset"
	"adafl/internal/nn"
	"adafl/internal/rpc"
	"adafl/internal/session"
	"adafl/internal/stats"
)

const (
	asyncClients  = 8
	asyncK        = 4
	asyncVersions = 5000
	asyncSamples  = 4000
	asyncImg      = 16
	// asyncPoll is how often the benchmark samples AsyncSession.Version:
	// the async engine has no per-version hook, and a 2 ms version is
	// well resolved by windows of many polls.
	asyncPoll = 2 * time.Millisecond
)

// versionSample is one poll of the session's model version.
type versionSample struct {
	t time.Time
	v int
}

type asyncOut struct {
	setupS     float64 // start → first model version
	samples    []versionSample
	end        time.Time
	res        *session.AsyncResult
	clientSent int64
	earlyErrs  int // clients that failed while the budget was still open
	exitErrs   int // clients that returned an error after it was met
}

func runAsyncSession(rc *runCtx, versions int, parent *span) (*asyncOut, error) {
	sp := rc.spans.start("session", parent)
	defer sp.finish()
	setup := rc.spans.start("setup", sp)
	start := time.Now()
	ds := dataset.SynthMNIST(asyncSamples, asyncImg, rc.seed)
	train, _ := ds.Split(0.8, rc.seed+1)
	parts := dataset.PartitionShards(train, asyncClients, 2, rc.seed+2)
	newModel := func() *nn.Model {
		return nn.NewImageMLP([]int{1, asyncImg, asyncImg}, []int{32}, 10, stats.NewRNG(rc.seed+4))
	}
	sess, err := session.NewAsync(session.AsyncConfig{
		NewModel: newModel, K: asyncK, Versions: versions, Shards: 2,
		Metrics: rc.reg, Events: rc.events, Logf: quietLogf,
	})
	if err != nil {
		return nil, err
	}
	mgr, err := session.NewManager(session.Config{Addr: "127.0.0.1:0", Wire: rpc.WireBinary, Logf: quietLogf})
	if err != nil {
		return nil, err
	}
	if err := mgr.Register("", sess); err != nil {
		mgr.Close()
		return nil, err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- mgr.Serve() }()
	setup.finish()

	out := &asyncOut{}
	var mu sync.Mutex // guards the error tallies
	var wg sync.WaitGroup
	sent := make([]int64, asyncClients)
	connect := rc.spans.start("connect", sp)
	for i := 0; i < asyncClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			csp := rc.spans.start(fmt.Sprintf("client[%d].run", i), sp)
			defer csp.finish()
			res, err := rpc.RunClient(rpc.ClientConfig{
				Addr: mgr.Addr(), ID: i, Data: parts[i], NewModel: newModel,
				Async: true, AsyncRatio: 8,
				LocalSteps: 3, BatchSize: 16, LR: 0.05, Momentum: 0.9,
				Seed: rc.seed + 100 + uint64(i), Wire: rpc.WireBinary, Logf: quietLogf,
				Metrics: rc.reg,
			})
			if res != nil {
				sent[i] = res.BytesSent
			}
			if err != nil {
				mu.Lock()
				if sess.Version() < versions {
					out.earlyErrs++
				} else {
					out.exitErrs++
				}
				mu.Unlock()
			}
		}(i)
	}
	connect.finish()

	stop := make(chan struct{})
	polled := make(chan []versionSample, 1)
	go func() {
		var samples []versionSample
		tick := time.NewTicker(asyncPoll)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				polled <- samples
				return
			case now := <-tick.C:
				if v := sess.Version(); len(samples) == 0 || v != samples[len(samples)-1].v {
					samples = append(samples, versionSample{now, v})
				}
			}
		}
	}()

	res, runErr := sess.Run()
	out.end = time.Now()
	close(stop)
	out.samples = <-polled
	mgr.Close()
	wg.Wait()
	if err := <-serveErr; err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		return nil, fmt.Errorf("async_push: %w", runErr)
	}
	out.res = res
	for _, n := range sent {
		out.clientSent += n
	}
	for _, s := range out.samples {
		if s.v >= 1 {
			out.setupS = s.t.Sub(start).Seconds()
			break
		}
	}
	return out, nil
}

func asyncPush(rc *runCtx) (*outcome, error) {
	versions := rc.budget(asyncVersions, 1)
	root := rc.spans.start("workload", nil)
	defer root.finish()

	repeats := 4
	if rc.quick {
		repeats = 0
	}
	var setups []float64
	for i := 0; i < repeats; i++ {
		s, err := runAsyncSession(rc.untraced(), 20, root)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.setupS)
	}
	s, err := runAsyncSession(rc, versions, root)
	if err != nil {
		return nil, err
	}
	rss := peakRSSMB()
	setups = append(setups, s.setupS)
	res := s.res

	// Timing window: from the first poll at or past 1 % of the budget to
	// the end of the session.
	warm := versions / 100
	if warm < 2 {
		warm = 2
	}
	var window []versionSample
	for _, smp := range s.samples {
		if smp.v >= warm {
			window = append(window, smp)
		}
	}
	window = append(window, versionSample{s.end, res.Versions})
	o := newOutcome()
	if window[0].v == res.Versions {
		return nil, fmt.Errorf("async_push: the version poll saw nothing between version %d and the end", warm)
	}
	o.set("setup_s", median(setups))
	o.set("updates_per_s", asyncK/secondsPerVersion(window, 250))
	o.set("round_s_p50", secondsPerVersion(window, 25))
	o.set("uplink_bytes_per_update", float64(res.BytesReceived)/float64(res.Pushes))
	o.set("peak_rss_mb", rss)
	o.note("timed from version %d to %d: round_s_p50 is seconds per model version, median over stretches of 25 versions; updates_per_s is K over the median of stretches of 250; setup_s (to the first version) median of %d sessions",
		window[0].v, res.Versions, len(setups))

	o.attempted = int64(res.Pushes + res.StaleRejected)
	o.failed = int64(res.StaleRejected+res.Evictions+len(res.Quarantines)+s.earlyErrs) + int64(versions-res.Versions)
	if res.Versions != versions {
		o.gate("ended at version %d of %d", res.Versions, versions)
	}
	if res.Pushes != asyncK*versions {
		o.gate("%d pushes accepted, want K·Versions = %d", res.Pushes, asyncK*versions)
	}
	if res.Evictions != 0 || len(res.Quarantines) != 0 || res.StaleRejected != 0 {
		o.gate("%d evictions, %d quarantines, %d stale rejections (want none)", res.Evictions, len(res.Quarantines), res.StaleRejected)
	}
	if s.earlyErrs != 0 {
		o.gate("%d clients failed before the version budget was met", s.earlyErrs)
	}
	// Clients keep pushing until the shutdown notice lands, so what they
	// sent may exceed what the server read, never the reverse.
	if res.BytesReceived > s.clientSent {
		o.gate("byte accounting: server received %d, clients sent only %d", res.BytesReceived, s.clientSent)
	}
	if s.exitErrs != 0 {
		o.note("%d of %d async clients returned an error after the budget was met (counted in session.client_exit_errors, not in fail_share)", s.exitErrs, asyncClients)
	}

	if rc.traced {
		o.layer["session.version_s_p50"] = o.metrics["round_s_p50"]
		var stale, pushes int
		for k, n := range res.StalenessCounts {
			stale += k * n
			pushes += n
		}
		o.layer["session.staleness_mean"] = float64(stale) / float64(pushes)
		o.layer["session.stale_rejected"] = float64(res.StaleRejected)
		o.layer["session.client_exit_errors"] = float64(s.exitErrs)
		shardLayer(rc, o)
	}
	return o, nil
}

// secondsPerVersion is the median, over consecutive stretches of at
// least window versions, of seconds per model version. Single polls are
// too coarse (a version lasts about one poll interval), and a median over
// stretches shrugs off the odd stalled stretch that a total over the
// whole session would carry.
func secondsPerVersion(samples []versionSample, window int) float64 {
	var per []float64
	for i, from := 1, 0; i < len(samples); i++ {
		if dv := samples[i].v - samples[from].v; dv >= window {
			per = append(per, samples[i].t.Sub(samples[from].t).Seconds()/float64(dv))
			from = i
		}
	}
	if len(per) == 0 { // a budget shorter than one window: the whole of it
		first, last := samples[0], samples[len(samples)-1]
		return last.t.Sub(first.t).Seconds() / float64(last.v-first.v)
	}
	return median(per)
}
