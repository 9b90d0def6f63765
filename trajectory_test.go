package xmlnorm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// trajectoryRow is one row of BENCH_trajectory.json: one end-to-end
// metric of one benchmark workload as a PR's CHANGES.md entry reports
// it. A nil field is a value the entry does not give.
type trajectoryRow struct {
	PR           int      `json:"pr"`
	Workload     string   `json:"workload"`
	Metric       string   `json:"metric"`
	Unit         string   `json:"unit"`
	Claim        bool     `json:"claim"`
	ParentMedian *float64 `json:"parent_median"`
	ParentQ1     *float64 `json:"parent_q1"`
	ParentQ3     *float64 `json:"parent_q3"`
	ChangeMedian *float64 `json:"change_median"`
	ChangeQ1     *float64 `json:"change_q1"`
	ChangeQ3     *float64 `json:"change_q3"`
	Pairs        *int     `json:"pairs"`
	Wins         *int     `json:"wins"`
	Seeds        *string  `json:"seeds"`
	Host         string   `json:"host"`
	Note         string   `json:"note,omitempty"`
}

// TestBenchTrajectory holds the committed performance record to the
// benchmark it records: every row names a workload, an end-to-end
// metric and that metric's unit from BENCHMARK.json, rows are in PR
// order with one row per (PR, workload, metric), medians are positive,
// no row wins more pairs than it ran, and each PR claims at most one
// (workload, metric).
func TestBenchTrajectory(t *testing.T) {
	var bench struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	workloads := map[string]bool{}
	for _, w := range bench.Workloads {
		workloads[w.Name] = true
	}
	units := map[string]string{}
	for _, m := range bench.EndToEnd {
		units[m.Name] = m.Unit
	}

	var traj struct {
		Description string          `json:"description"`
		Rows        []trajectoryRow `json:"rows"`
	}
	data, err = os.ReadFile("BENCH_trajectory.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&traj); err != nil {
		t.Fatal(err)
	}
	if len(traj.Rows) == 0 {
		t.Fatal("BENCH_trajectory.json has no rows")
	}
	seen := map[string]bool{}
	claims := map[int]int{}
	lastPR := 0
	for i, r := range traj.Rows {
		at := func(format string, args ...any) {
			t.Helper()
			t.Errorf("row %d (PR %d, %s %s): "+format, append([]any{i, r.PR, r.Workload, r.Metric}, args...)...)
		}
		if !workloads[r.Workload] {
			at("workload not in BENCHMARK.json")
		}
		if unit, ok := units[r.Metric]; !ok {
			at("not an end-to-end metric of BENCHMARK.json")
		} else if r.Unit != unit {
			at("unit %q, BENCHMARK.json says %q", r.Unit, unit)
		}
		if r.PR < lastPR {
			at("PR number decreases from %d", lastPR)
		}
		lastPR = r.PR
		for _, m := range []*float64{r.ParentMedian, r.ChangeMedian} {
			if m != nil && *m <= 0 {
				at("median %v is not positive", *m)
			}
		}
		if r.Wins != nil && (r.Pairs == nil || *r.Wins < 0 || *r.Wins > *r.Pairs) {
			at("wins %d outside the pairs run", *r.Wins)
		}
		key := fmt.Sprintf("%d %s %s", r.PR, r.Workload, r.Metric)
		if seen[key] {
			at("duplicate row")
		}
		seen[key] = true
		if r.Claim {
			if claims[r.PR]++; claims[r.PR] > 1 {
				at("a second claimed metric in one PR")
			}
		}
	}
}
