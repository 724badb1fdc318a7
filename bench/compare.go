package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
)

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(xs, n=4) does (the driver's rule), so a spread
// printed here is the spread the driver will compute. One value is its
// own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// relSpread is the interquartile distance as a share of the median.
func relSpread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

func loadDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Results) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return &doc, nil
}

// series collects one workload's values of one end-to-end metric over
// the runs of a document ("fail_share" included).
func (d *document) series(workload, metric string) []float64 {
	var out []float64
	for _, r := range d.Results {
		if r.Workload != workload || r.Traced {
			continue
		}
		if metric == "fail_share" {
			out = append(out, r.FailShare)
		} else if v, ok := r.EndToEnd[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}

// verdict applies one metric's bound to two sets of runs.
func verdict(m e2eMetric, old, new []float64) string {
	_, oldMed, _ := quartiles(old)
	_, newMed, _ := quartiles(new)
	if relSpread(old) > m.bound || relSpread(new) > m.bound {
		// The runs disagree with themselves by more than the bound: only
		// a clean separation still counts.
		separated := slices.Max(new) < slices.Min(old)
		if m.better == "higher" {
			separated = slices.Min(new) > slices.Max(old)
		}
		if separated {
			return "better"
		}
		return "unresolved"
	}
	// Orient so that larger is worse.
	sign := 1.0
	if m.better == "higher" {
		sign = -1
	}
	switch worse := sign * (newMed - oldMed); {
	case worse > m.bound*math.Abs(oldMed):
		return "worse"
	case worse < -m.bound*math.Abs(oldMed):
		return "better"
	}
	return "same"
}

// compareFiles prints one row per (metric, workload) and fails when any
// row is worse or a workload's fail_share went up.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	oldDoc, err := loadDocument(oldPath)
	if err != nil {
		return err
	}
	newDoc, err := loadDocument(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-24s %-13s %13s %13s %8s %7s %7s  %s\n",
		"metric", "workload", "old median", "new median", "change", "old iqr", "new iqr", "verdict")
	counts := map[string]int{}
	for _, m := range e2eMetrics() {
		for _, wl := range m.on {
			old, new := oldDoc.series(wl, m.name), newDoc.series(wl, m.name)
			if len(old) == 0 || len(new) == 0 {
				return fmt.Errorf("%s on %s: %d old and %d new values", m.name, wl, len(old), len(new))
			}
			v := verdict(m, old, new)
			counts[v]++
			_, oldMed, _ := quartiles(old)
			_, newMed, _ := quartiles(new)
			fmt.Fprintf(w, "%-24s %-13s %13.6g %13.6g %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				m.name, wl, oldMed, newMed, 100*(newMed-oldMed)/oldMed, 100*relSpread(old), 100*relSpread(new), v)
		}
	}
	for _, wl := range allWorkloads {
		old, new := oldDoc.series(wl, "fail_share"), newDoc.series(wl, "fail_share")
		if len(old) == 0 || len(new) == 0 {
			return fmt.Errorf("fail_share on %s: %d old and %d new values", wl, len(old), len(new))
		}
		_, oldMed, _ := quartiles(old)
		_, newMed, _ := quartiles(new)
		v := "same"
		if newMed > oldMed {
			v = "worse"
		} else if newMed < oldMed {
			v = "better"
		}
		counts[v]++
		fmt.Fprintf(w, "%-24s %-13s %13.6g %13.6g %8s %7s %7s  %s\n", "fail_share", wl, oldMed, newMed, "", "", "", v)
	}
	fmt.Fprintf(w, "%d better, %d same, %d worse, %d unresolved\n",
		counts["better"], counts["same"], counts["worse"], counts["unresolved"])
	if counts["worse"] > 0 {
		return fmt.Errorf("%d (metric, workload) pairs got worse", counts["worse"])
	}
	return nil
}
