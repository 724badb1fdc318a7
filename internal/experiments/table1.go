package experiments

import (
	"fmt"
	"io"

	"adafl/internal/compress"
	"adafl/internal/core"
	"adafl/internal/fl"
	"adafl/internal/trace"
)

// MethodRow is one line of Table I / Table II.
type MethodRow struct {
	Method string
	// ParticipRate describes client sampling ("0.5" or "adaptive").
	ParticipRate string
	// UpdateFreq is the mean number of client→server updates per run.
	UpdateFreq int
	// IdealUpdates is the full-participation update budget (rounds × N).
	IdealUpdates int
	// CostReductionPct is the uplink-byte saving relative to
	// full-participation dense transmission (negative = saving), matching
	// the paper's "Cost Reduc." column.
	CostReductionPct float64
	// GradMinBytes/GradMaxBytes bound the observed update sizes.
	GradMinBytes, GradMaxBytes int
	// RatioMin/RatioMax bound the compression ratios used.
	RatioMin, RatioMax float64
	// Acc maps "<task>-<dist>" to mean final accuracy.
	Acc map[string]float64
}

// TableResult bundles the rows with a rendered table.
type TableResult struct {
	Rows  []MethodRow
	Table *trace.Table
}

// RunTable1 reproduces Table I: synchronous methods across MNIST and the
// CIFAR stand-in, IID and non-IID.
func RunTable1(p Preset, w io.Writer) *TableResult {
	res := &TableResult{}
	settings := []struct {
		task Task
		iid  bool
	}{
		{MNISTTask, true}, {MNISTTask, false},
		{CIFARTask, true}, {CIFARTask, false},
	}

	for _, m := range SyncMethods() {
		row := MethodRow{Method: m.Name, ParticipRate: "0.5", Acc: map[string]float64{}}
		if m.AdaFL {
			row.ParticipRate = "adaptive"
		}
		totalUpdates, totalIdeal := 0, 0
		var totalBytes, totalIdealBytes int64
		ratioMin, ratioMax := 0.0, 0.0
		gradMin, gradMax := 0, 0
		for _, s := range settings {
			var lastEngine *fl.SyncEngine
			_, stats := runSyncSeeds(p.Seeds, p.Rounds, func(seed uint64) *fl.SyncEngine {
				lastEngine = m.Build(p, s.task, s.iid, seed)
				return lastEngine
			})
			key := fmt.Sprintf("%s-%s", s.task, distLabel(s.iid))
			row.Acc[key] = stats.FinalAcc
			totalUpdates += stats.Updates
			totalIdeal += p.Rounds * p.Clients
			totalBytes += stats.UplinkBytes
			dim := len(lastEngine.Global)
			dense := compress.DenseBytes(dim)
			totalIdealBytes += int64(p.Rounds * p.Clients * dense)
			if planner, ok := lastEngine.Planner.(*core.SyncPlanner); ok {
				tr := planner.RatioStats
				if ratioMax == 0 || tr.MaxRatio > ratioMax {
					ratioMax = tr.MaxRatio
				}
				if ratioMin == 0 || tr.MinRatio < ratioMin {
					ratioMin = tr.MinRatio
				}
				lo := int(float64(dense) / tr.MaxRatio)
				hi := int(float64(dense) / tr.MinRatio)
				if gradMin == 0 || lo < gradMin {
					gradMin = lo
				}
				if hi > gradMax {
					gradMax = hi
				}
			} else {
				ratioMin, ratioMax = 1, 1
				if gradMax < dense {
					gradMax = dense
				}
				if gradMin == 0 || dense < gradMin {
					gradMin = dense
				}
			}
		}
		row.UpdateFreq = totalUpdates / len(settings)
		row.IdealUpdates = totalIdeal / len(settings)
		row.CostReductionPct = -100 * (1 - float64(totalBytes)/float64(totalIdealBytes))
		row.GradMinBytes, row.GradMaxBytes = gradMin, gradMax
		row.RatioMin, row.RatioMax = ratioMin, ratioMax
		res.Rows = append(res.Rows, row)
	}

	res.Table = renderMethodTable("Table I — Synchronous FL", p, res.Rows)
	if w != nil {
		res.Table.Render(w)
	}
	return res
}

// renderMethodTable formats rows in the paper's Table I/II layout.
func renderMethodTable(title string, p Preset, rows []MethodRow) *trace.Table {
	t := trace.NewTable(
		fmt.Sprintf("%s (scale=%s, %d clients, %d rounds ≅ %d ideal updates)",
			title, p.Scale, p.Clients, p.Rounds, p.Rounds*p.Clients),
		"Method", "Particip.", "Upd.Freq", "Cost Reduc.", "Grad Size", "Ratio",
		"MNIST IID/non-IID", "CIFAR IID/non-IID")
	for _, r := range rows {
		t.AddRow(
			r.Method,
			r.ParticipRate,
			r.UpdateFreq,
			fmt.Sprintf("%.1f%%", r.CostReductionPct),
			fmt.Sprintf("%s-%s", fmtBytes(r.GradMinBytes), fmtBytes(r.GradMaxBytes)),
			fmt.Sprintf("%.0fx-%.0fx", r.RatioMax, r.RatioMin),
			fmt.Sprintf("%.1f%% / %.1f%%", 100*r.Acc["mnist-iid"], 100*r.Acc["mnist-noniid"]),
			fmt.Sprintf("%.1f%% / %.1f%%", 100*r.Acc["cifar-iid"], 100*r.Acc["cifar-noniid"]),
		)
	}
	return t
}

func fmtBytes(b int) string {
	switch {
	case b >= 1e6:
		return fmt.Sprintf("%.2fMB", float64(b)/1e6)
	case b >= 1e3:
		return fmt.Sprintf("%.0fKB", float64(b)/1e3)
	default:
		return fmt.Sprintf("%dB", b)
	}
}
