package experiments

import (
	"strings"
	"testing"

	"adafl/internal/nn"
)

func tinyPreset() Preset { return PresetFor(Tiny) }

// findRow returns the row for a method name, or nil.
func findRow(res *TableResult, method string) *MethodRow {
	for i := range res.Rows {
		if res.Rows[i].Method == method {
			return &res.Rows[i]
		}
	}
	return nil
}

func TestParseScale(t *testing.T) {
	for s, want := range map[string]Scale{"tiny": Tiny, "small": Small, "full": Full} {
		got, err := ParseScale(s)
		if err != nil || got != want {
			t.Errorf("ParseScale(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestPresetFederationShapes(t *testing.T) {
	p := tinyPreset()
	for _, task := range []Task{MNISTTask, CIFARTask} {
		fed := p.Federation(task, true, 1)
		if len(fed.Clients) != p.Clients {
			t.Fatalf("%s: %d clients", task, len(fed.Clients))
		}
		if fed.Test.Len() == 0 {
			t.Fatalf("%s: empty test set", task)
		}
		m := fed.NewModel()
		if m.NumParams() == 0 {
			t.Fatalf("%s: empty model", task)
		}
	}
}

func TestAdaFLConfigScalesRatios(t *testing.T) {
	p := tinyPreset()
	cfg := p.AdaFLConfig(MNISTTask, 210)
	// Tiny uses a small MLP, so the 210x CNN ladder must be capped.
	if cfg.Compression.MaxRatio > 10 {
		t.Fatalf("ratio not scaled for small model: %v", cfg.Compression.MaxRatio)
	}
	full := PresetFor(Full)
	cfgFull := full.AdaFLConfig(MNISTTask, 210)
	if cfgFull.Compression.MaxRatio != 210 {
		t.Fatalf("full CNN ladder clipped: %v", cfgFull.Compression.MaxRatio)
	}
}

func TestSyncMethodsLineup(t *testing.T) {
	names := []string{}
	adaCount := 0
	for _, m := range SyncMethods() {
		names = append(names, m.Name)
		if m.AdaFL {
			adaCount++
		}
	}
	want := "FedAvg FedAdam FedProx SCAFFOLD AdaFL"
	if strings.Join(names, " ") != want {
		t.Fatalf("lineup %v", names)
	}
	if adaCount != 1 {
		t.Fatalf("AdaFL flag count %d", adaCount)
	}
}

func TestAsyncMethodsLineup(t *testing.T) {
	names := []string{}
	for _, m := range AsyncMethods() {
		names = append(names, m.Name)
	}
	if strings.Join(names, " ") != "FedAsync FedBuff AdaFL" {
		t.Fatalf("lineup %v", names)
	}
}

func TestRunFig1Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	p := tinyPreset()
	// One seed, one task pair keeps this test fast; reduce work further.
	p.Rounds = 8
	p.AsyncHorizon = 6
	var sb strings.Builder
	res := RunFig1(p, &sb)
	if len(res.Panels) != 12 {
		t.Fatalf("Fig1 panels = %d, want 12", len(res.Panels))
	}
	for _, fig := range res.Panels {
		if len(fig.Series) < 3 {
			t.Fatalf("panel %q has %d series", fig.Title, len(fig.Series))
		}
		for _, s := range fig.Series {
			if s.Len() == 0 {
				t.Fatalf("panel %q has empty series %q", fig.Title, s.Name)
			}
		}
	}
	if !strings.Contains(sb.String(), "Insight 1") {
		t.Fatal("insight summary missing")
	}
}

func TestRunFig3Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	p := tinyPreset()
	p.Rounds = 8
	p.AsyncHorizon = 6
	res := RunFig3(p, nil)
	if len(res.Panels) != 4 {
		t.Fatalf("Fig3 panels = %d", len(res.Panels))
	}
	if len(res.Panels[0].Series) != 5 {
		t.Fatalf("sync panel series = %d, want 5 methods", len(res.Panels[0].Series))
	}
	if len(res.Panels[2].Series) != 3 {
		t.Fatalf("async panel series = %d, want 3 methods", len(res.Panels[2].Series))
	}
	for _, finals := range res.FinalAcc {
		if _, ok := finals["AdaFL"]; !ok {
			t.Fatal("AdaFL missing from finals")
		}
	}
}

func TestRunTable1Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	p := tinyPreset()
	p.Rounds = 8
	var sb strings.Builder
	res := RunTable1(p, &sb)
	if len(res.Rows) != 5 {
		t.Fatalf("Table1 rows = %d", len(res.Rows))
	}
	ada := findRow(res, "AdaFL")
	if ada == nil {
		t.Fatal("AdaFL row missing")
	}
	if ada.ParticipRate != "adaptive" {
		t.Fatalf("AdaFL rate %q", ada.ParticipRate)
	}
	base := findRow(res, "FedAvg")
	// The core cost claim: AdaFL reduces communication more than the
	// fixed-rate baselines (which sit at ~-50%).
	if ada.CostReductionPct >= base.CostReductionPct {
		t.Fatalf("AdaFL cost %.1f%% not below baseline %.1f%%",
			ada.CostReductionPct, base.CostReductionPct)
	}
	if ada.RatioMax <= ada.RatioMin {
		t.Fatalf("AdaFL ratio range degenerate: %v..%v", ada.RatioMin, ada.RatioMax)
	}
	for _, key := range []string{"mnist-iid", "mnist-noniid", "cifar-iid", "cifar-noniid"} {
		if _, ok := ada.Acc[key]; !ok {
			t.Fatalf("missing accuracy cell %q", key)
		}
	}
	if !strings.Contains(sb.String(), "Table I") {
		t.Fatal("table title missing")
	}
}

func TestRunTable2Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	p := tinyPreset()
	p.AsyncHorizon = 6
	res := RunTable2(p, nil)
	if len(res.Rows) != 3 {
		t.Fatalf("Table2 rows = %d", len(res.Rows))
	}
	ada := findRow(res, "AdaFL")
	base := findRow(res, "FedAsync")
	if ada == nil || base == nil {
		t.Fatal("rows missing")
	}
	if ada.CostReductionPct >= base.CostReductionPct {
		t.Fatalf("AdaFL async cost %.1f%% not below baseline %.1f%%",
			ada.CostReductionPct, base.CostReductionPct)
	}
}

func TestRunOverheadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	p := tinyPreset()
	p.Rounds = 6
	res := RunOverhead(p, nil)
	if res.BaselineCycles <= 0 {
		t.Fatal("no training cycles recorded")
	}
	if res.UtilityCycles <= 0 || res.CompressCycles <= 0 {
		t.Fatal("component cycles missing")
	}
	// The paper's qualitative claims: utility overhead is tiny (<1%) and
	// compression costs more than utility scoring.
	if res.UtilityExpansionPct >= 1 {
		t.Fatalf("utility expansion %.3f%% too large", res.UtilityExpansionPct)
	}
	if res.CompressCycles <= res.UtilityCycles {
		t.Fatal("compression should cost more than utility scoring")
	}
	if res.WallUtility <= 0 || res.WallDGC <= 0 {
		t.Fatal("wall-clock measurements missing")
	}
}

func TestRunScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	p := tinyPreset()
	p.Rounds = 6
	res := RunScale(p, nil)
	if len(res.ClientCounts) < 2 {
		t.Fatal("scale sweep too small")
	}
	for i := range res.ClientCounts {
		if res.AdaBytes[i] >= res.BaseBytes[i] {
			t.Fatalf("N=%d: AdaFL bytes %d not below FedAvg %d",
				res.ClientCounts[i], res.AdaBytes[i], res.BaseBytes[i])
		}
	}
}

func TestRunAblationsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	p := tinyPreset()
	p.Rounds = 8
	res := RunAblations(p, nil)
	if len(res.Acc) != len(AblationVariants()) {
		t.Fatalf("ablation count %d", len(res.Acc))
	}
	if _, ok := res.Acc["adafl (reference)"]; !ok {
		t.Fatal("reference variant missing")
	}
	// fixed-ratio at MinRatio everywhere must cost more bytes than the
	// adaptive ladder.
	if res.Bytes["fixed-ratio"] <= res.Bytes["adafl (reference)"] {
		t.Fatalf("fixed-ratio bytes %d not above adaptive %d",
			res.Bytes["fixed-ratio"], res.Bytes["adafl (reference)"])
	}
}

func TestFullPresetUsesPaperModels(t *testing.T) {
	p := PresetFor(Full)
	mnist := p.NewModelFactory(MNISTTask, 1)()
	if mnist.NumParams() != 431080 {
		t.Fatalf("Full MNIST model has %d params, want the paper CNN's 431080", mnist.NumParams())
	}
	cifar := p.NewModelFactory(CIFARTask, 1)()
	if cifar.Classes != p.CIFARClasses {
		t.Fatalf("Full CIFAR model classes %d", cifar.Classes)
	}
	if len(p.Seeds) < 10 {
		t.Fatalf("Full preset has %d seeds, paper repeats 10 times", len(p.Seeds))
	}
}

func TestMethodTableRendering(t *testing.T) {
	rows := []MethodRow{{
		Method: "AdaFL", ParticipRate: "adaptive", UpdateFreq: 233,
		IdealUpdates: 800, CostReductionPct: -70.9,
		GradMinBytes: 8000, GradMaxBytes: 420000,
		RatioMin: 4, RatioMax: 210,
		Acc: map[string]float64{"mnist-iid": 0.934, "mnist-noniid": 0.875,
			"cifar-iid": 0.619, "cifar-noniid": 0.563},
	}}
	tbl := renderMethodTable("Table I — Synchronous FL", tinyPreset(), rows)
	out := tbl.String()
	for _, want := range []string{"AdaFL", "adaptive", "233", "-70.9%", "8KB-420KB", "210x-4x", "93.4% / 87.5%"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestResNetForCIFARSelection(t *testing.T) {
	p := PresetFor(Full)
	vgg := p.NewModelFactory(CIFARTask, 1)()
	p.ResNetForCIFAR = true
	res := p.NewModelFactory(CIFARTask, 1)()
	if vgg.NumParams() == res.NumParams() {
		t.Fatal("ResNetForCIFAR did not switch architectures")
	}
	hasLayer := func(m *nn.Model, prefix string) bool {
		for _, l := range m.Layers {
			if strings.HasPrefix(l.Name(), prefix) {
				return true
			}
		}
		return false
	}
	if !hasLayer(res, "resblock") {
		t.Fatal("expected residual blocks in the ResNet factory's model")
	}
	if !hasLayer(vgg, "conv3x3") {
		t.Fatal("expected 3×3 convolutions in the VGG factory's model")
	}
}
