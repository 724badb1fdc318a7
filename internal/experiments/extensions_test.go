package experiments

import (
	"strings"
	"testing"
)

func TestRunCodecsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	p := tinyPreset()
	p.Rounds = 10
	var sb strings.Builder
	res := RunCodecs(p, &sb)
	if len(res.Acc) != 6 {
		t.Fatalf("codec count %d", len(res.Acc))
	}
	// Identity is exact to the float32 it transmits (half an ulp, 2^-24
	// relative); every lossy codec has nonzero one-shot error.
	if res.Err["identity"] > 1.0/(1<<24) {
		t.Fatalf("identity error %v", res.Err["identity"])
	}
	for _, name := range []string{"topk@8x", "randomk@8x", "qsgd-4bit", "terngrad"} {
		if res.Err[name] <= 0 {
			t.Errorf("%s: zero one-shot error", name)
		}
	}
	// Identity costs the most bytes.
	for name, b := range res.Bytes {
		if name != "identity" && b >= res.Bytes["identity"] {
			t.Errorf("%s bytes %d not below identity %d", name, b, res.Bytes["identity"])
		}
	}
	if !strings.Contains(sb.String(), "Codec comparison") {
		t.Fatal("table missing")
	}
}

func TestRunDynamicSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	p := tinyPreset()
	p.Rounds = 12
	res := RunDynamic(p, nil)
	for _, name := range []string{"fedavg-dense", "static-dgc", "adafl"} {
		if _, ok := res.Acc[name]; !ok {
			t.Fatalf("variant %s missing", name)
		}
		if res.SimTime[name] <= 0 {
			t.Fatalf("variant %s has no simulated time", name)
		}
	}
	// The adaptive strategy must transmit fewer bytes than dense FedAvg.
	if res.Bytes["adafl"] >= res.Bytes["fedavg-dense"] {
		t.Fatalf("adafl bytes %d not below dense %d",
			res.Bytes["adafl"], res.Bytes["fedavg-dense"])
	}
}

func TestRunProtocolsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	p := tinyPreset()
	p.AsyncHorizon = 8
	var sb strings.Builder
	res := RunProtocols(p, &sb)
	for _, name := range []string{"FedAvg(sync)", "FedAT", "FedAsync", "AdaFL"} {
		if _, ok := res.AccAtHorizon[name]; !ok {
			t.Fatalf("protocol %s missing", name)
		}
	}
	if len(res.Figure.Series) != 4 {
		t.Fatalf("figure series %d", len(res.Figure.Series))
	}
	if !strings.Contains(sb.String(), "Protocol comparison") {
		t.Fatal("table missing")
	}
}
