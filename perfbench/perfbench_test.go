package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

func TestSeedFixesInputs(t *testing.T) {
	names := func(seed int64) []string {
		var out []string
		for _, b := range corpusOrder(seed) {
			out = append(out, b.Name)
		}
		return out
	}
	if !reflect.DeepEqual(names(7), names(7)) {
		t.Fatal("the same seed gave two corpus orders")
	}
	if reflect.DeepEqual(names(7), names(8)) {
		t.Fatal("seeds 7 and 8 gave the same corpus order")
	}
	if got := len(names(7)); got != 41 {
		t.Fatalf("corpus has %d programs, want 41", got)
	}
	a, b := requestPlan(7, 1800, 41), requestPlan(7, 1800, 41)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two request plans")
	}
	if reflect.DeepEqual(a[0], a[1]) {
		t.Fatal("both clients drew the same sequence")
	}
	other := requestPlan(8, 1800, 41)
	if reflect.DeepEqual(a, other) {
		t.Fatal("seeds 7 and 8 gave the same request plan")
	}
	// Seeds change the order, never the mix, so every run of the same
	// length fails the same requests, and the known dead miscompile
	// stays among them.
	mix := func(plan [][]serveRequest) map[serveRequest]int {
		m := map[serveRequest]int{}
		for _, seq := range plan {
			for _, r := range seq {
				m[r]++
			}
		}
		return m
	}
	if !reflect.DeepEqual(mix(a), mix(other)) {
		t.Fatal("seeds 7 and 8 gave two request mixes")
	}
	kinds, known := map[string]int{}, 0
	for r, n := range mix(a) {
		kinds[r.kind] += n
		if r.kind == kindTX && deadMiscompiled[corpusOrder(0)[r.module].Name] {
			known += n
		}
	}
	if want := map[string]int{kindRO: 1260, kindTX: 360, kindAuto: 180}; !reflect.DeepEqual(kinds, want) {
		t.Fatalf("pipeline mix %v, want %v", kinds, want)
	}
	if known == 0 {
		t.Fatal("no licm,dead request on a module of the known dead miscompile")
	}
	t.Logf("%d licm,dead requests on the modules of the known dead miscompile", known)
}

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 109)
	for i := range xs {
		xs[i] = float64(i)
	}
	// 109 samples leave 10 beyond p90, but only 1 beyond p99.
	if _, err := percentile(xs, 0.9); err != nil {
		t.Fatalf("p90 of 109 samples: %v", err)
	}
	if _, err := percentile(xs, 0.99); err == nil {
		t.Fatal("p99 of 109 samples was not refused")
	}
	if _, err := percentile(xs[:99], 0.9); err == nil {
		t.Fatal("p90 of 99 samples (9 beyond) was not refused")
	}
	if got, err := percentile([]float64{3, 1, 2}, 0.5); err != nil || math.Abs(got-2) > 1e-9 {
		t.Fatalf("median of {3,1,2} = %v, %v; want 2", got, err)
	}
	// On evenly spaced samples the Harrell–Davis p90 sits at the
	// expected order statistic, (n+1)q - 1 = 98 (0-based), within a
	// fraction of one spacing.
	if got, _ := percentile(xs, 0.9); math.Abs(got-98) > 0.5 {
		t.Fatalf("p90 of 0..108 = %v, want about 98", got)
	}
	// Weights sum to one: a constant sample is its own quantile.
	flat := make([]float64, 2000)
	for i := range flat {
		flat[i] = 7
	}
	if got, _ := percentile(flat, 0.99); math.Abs(got-7) > 1e-9 {
		t.Fatalf("p99 of a constant sample = %v, want 7", got)
	}
}

func TestSelfTime(t *testing.T) {
	// root [0,100) has children a [10,40) and b [30,60), which overlap,
	// and c [90,120), which outlives it; a has child d [15,25).
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60},
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120},
		{ID: 4, Parent: 1, Name: "d", Start: 15, End: 25},
		{ID: 5, Parent: -1, Name: "a", Start: 200, End: 205},
	}
	want := map[string]int64{
		"root": 100 - 50 - 10, // minus [10,60) and [90,100)
		"a":    30 - 10 + 5,   // both a spans, minus d
		"b":    30,
		"c":    30,
		"d":    10,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, which the benchmark runner
// reads, in step with the metrics and workloads this program reports,
// and every workload's named figures in step with the metrics.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q here", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit || m.Better != want[i].better {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v here", kind, i, m, want[i])
			}
		}
	}
	check("end_to_end", bj.EndToEnd, e2eMetrics)
	check("per_layer", bj.PerLayer, layerMetrics)

	e2e := map[string]bool{}
	for _, d := range e2eMetrics {
		e2e[d.name] = true
	}
	for _, w := range workloads {
		names := workloadNames[w.name]
		if len(names) == 0 {
			t.Errorf("workload %s has no named figures", w.name)
		}
		for _, n := range names {
			if !e2e[n[1]] {
				t.Errorf("workload %s: %s reads %s, which is not an end-to-end metric", w.name, n[0], n[1])
			}
		}
	}
}
