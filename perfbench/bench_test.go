package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// tinySizes shrinks every workload so a run takes about a second.
func tinySizes() sizes {
	return sizes{
		setupReps: 2, opens: 1,
		pmFiles: 20, pmWarmOps: 20,
		foObjects: 4, foDepth: 40, foWarmOps: 200,
		chObjects: 2, chWindowOps: 100, chCleanEvery: 16, chWarmOps: 100,
	}
}

func tinyRun(t *testing.T, workload string, traced bool, arm func(*faults)) resultOut {
	t.Helper()
	cfg := runCfg{workload: workload, seed: 7, seconds: 0.4, trace: traced, sizes: tinySizes(), m: newMeter()}
	if arm != nil {
		arm(cfg.m.faults)
	}
	res, err := execute(cfg)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

var allWorkloads = []string{"postmark", "forensics", "churn"}

// TestSmoke runs every workload at a tiny size, untraced and traced:
// the outputs check out, nothing fails, and every declared metric is
// present and finite.
func TestSmoke(t *testing.T) {
	for _, w := range allWorkloads {
		for _, traced := range []bool{false, true} {
			res := tinyRun(t, w, traced, nil)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(defs))
			}
			for name, m := range res.Metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: metric %s = %v", w, name, m.Value)
				}
			}
			if !traced {
				for _, d := range endToEnd {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.name, res.Metrics[d.name].Value)
					}
				}
			}
		}
	}
}

// TestFlippedByteCaught corrupts one byte of one read reply on the
// server side; the bench's record must catch it and fail the run.
func TestFlippedByteCaught(t *testing.T) {
	for _, w := range allWorkloads {
		res := tinyRun(t, w, false, func(f *faults) { f.flipReadAt.Store(3) })
		if res.Correct {
			t.Errorf("%s: a flipped byte in a read reply went unnoticed", w)
		}
	}
}

// TestInjectedFailureCounted refuses one write, in the measured window
// or in the warm-up before it: either way the op must be counted as
// attempted and failed, show in error_rate, and leave the output checks
// intact.
func TestInjectedFailureCounted(t *testing.T) {
	arms := map[string]func(*faults){
		"window":  func(f *faults) { f.failWriteAt.Store(2) },
		"warm-up": func(f *faults) { f.failOutsideAt.Store(2) },
	}
	for _, w := range []string{"postmark", "churn"} {
		for when, arm := range arms {
			res := tinyRun(t, w, true, arm)
			if res.Failed != 1 {
				t.Errorf("%s, %s: failed = %d, want the 1 injected", w, when, res.Failed)
			}
			want := float64(res.Failed) / float64(res.Attempted)
			if got := res.Metrics["error_rate"].Value; got != want || got == 0 {
				t.Errorf("%s, %s: error_rate = %v, want %d/%d", w, when, got, res.Failed, res.Attempted)
			}
			if !res.Correct {
				t.Errorf("%s, %s: a refused write broke the output checks", w, when)
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program's metric
// tables in step.
func TestBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if workloadsByName[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
