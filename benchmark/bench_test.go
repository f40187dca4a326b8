package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

// tiny runs workload name at the self-test size: a 0.2 s window and three
// scored captures (per reader).
func tiny(t *testing.T, name string, trace, corrupt bool) *report {
	t.Helper()
	rep, err := run(options{
		Workload: name, Seed: 7, Seconds: 0.2, Trace: trace, Quality: 3, corrupt: corrupt,
		TraceOut: filepath.Join(t.TempDir(), "spans.jsonl"),
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return rep
}

// benchmarkJSON is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// TestCatalogueMatchesBenchmarkJSON pins every metric's name, unit and
// direction, and the workload names, to BENCHMARK.json.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []metricDef, want []struct{ Name, Unit, Better string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the benchmark, %d in BENCHMARK.json", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: benchmark has %+v, BENCHMARK.json %+v", kind, i, g, w)
			}
		}
	}
	compare("end_to_end", endToEnd, bj.EndToEnd)
	compare("per_layer", perLayer, bj.PerLayer)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := sortedKeys(workloads); !slices.Equal(got, names) {
		t.Errorf("workloads: benchmark has %v, BENCHMARK.json %v", got, names)
	}
}

// TestEveryMetricEmitted runs each workload untraced and traced and checks
// that every metric is reported with its unit and that the checks pass.
func TestEveryMetricEmitted(t *testing.T) {
	for _, name := range sortedKeys(workloads) {
		for _, trace := range []bool{false, true} {
			rep := tiny(t, name, trace, false)
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rep.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", name, trace, d.Name, m, d.Unit)
				}
				if d.Better != "higher" && d.Better != "lower" {
					t.Errorf("metric %s: direction %q", d.Name, d.Better)
				}
			}
		}
	}
}

// TestQualityRepeatsAtSameSeed checks that the ground-truth metrics are a
// pure function of the seed.
func TestQualityRepeatsAtSameSeed(t *testing.T) {
	for _, name := range sortedKeys(workloads) {
		a, b := tiny(t, name, false, false), tiny(t, name, false, false)
		for _, k := range []string{"frame_loss_frac", "goodput_kbps", "frame_lag_ms_p50"} {
			if a.Metrics[k].Value != b.Metrics[k].Value {
				t.Errorf("%s: %s = %v then %v at the same seed", name, k, a.Metrics[k].Value, b.Metrics[k].Value)
			}
		}
		for _, k := range []string{"spurious_per_capture", "crc_false_accepts"} {
			if a.Diag[k] != b.Diag[k] {
				t.Errorf("%s: %s = %v then %v at the same seed", name, k, a.Diag[k], b.Diag[k])
			}
		}
	}
}

// TestCorruptedFrameTripsCheck flips one bit of one decoded frame and
// expects the run to report a failed operation.
func TestCorruptedFrameTripsCheck(t *testing.T) {
	for _, name := range sortedKeys(workloads) {
		rep := tiny(t, name, false, true)
		if rep.Correct || rep.Failed == 0 {
			t.Errorf("%s: a corrupted frame went unnoticed (correct=%v failed=%d)", name, rep.Correct, rep.Failed)
		}
	}
}
