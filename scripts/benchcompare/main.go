// benchcompare diffs two BENCH_exec.json artifacts (old vs new) produced
// by scripts/benchexec: it refuses artifacts that do not speak the
// current schema, pairs up rows by their cell name
// (benchmark/technique/engine/workers), and flags any end_to_end_speedup
// that dropped below the old value times the artifact's noise margin as
// a regression. Exit status 1 means at least one regression — wire it
// between two bench runs to turn the artifacts into a perf gate:
//
//	go run ./scripts/benchcompare BENCH_exec.json /tmp/new.json
//
// -tiers flips benchcompare into its second role: instead of diffing two
// commits, it reads ONE artifact and pairs the walker/compiled rows of
// otherwise-identical cells. The walker is the reference baseline, so
// the report is the compiled tier's wall-clock speedup over it (walker
// median par_ms / compiled median par_ms); a pair where the compiled
// tier is *slower* than the walker beyond the artifact's noise margin is
// a regression (exit 1) — the fast path must never lose to the oracle it
// is checked against.
//
//	go run ./scripts/benchcompare -tiers BENCH_exec.json
//
// Usage: go run ./scripts/benchcompare [-margin 0] old.json new.json
//
//	benchcompare -tiers [-margin 0] one.json
//
// (-margin overrides the noise margin recorded in the new artifact).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"noelle/internal/eval"
)

// artifact is the part of a BENCH_exec.json document benchcompare reads.
type artifact struct {
	Meta struct {
		Schema      int     `json:"schema"`
		GitCommit   string  `json:"git_commit"`
		NoiseMargin float64 `json:"noise_margin"`
	} `json:"meta"`
	Rows []struct {
		Name      string      `json:"name"`
		Benchmark string      `json:"benchmark"`
		Technique string      `json:"technique"`
		Engine    string      `json:"engine"`
		Workers   int         `json:"workers"`
		ParMS     eval.Timing `json:"par_ms"`
		EndToEnd  float64     `json:"end_to_end_speedup"`
	} `json:"rows"`
}

func main() {
	margin := flag.Float64("margin", 0, "noise margin override (0 = use the new artifact's meta.noise_margin)")
	tiers := flag.Bool("tiers", false, "diff the walker/compiled rows inside ONE artifact and report per-tier speedup")
	flag.Parse()
	if *tiers {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: benchcompare -tiers [-margin 0.95] one.json")
			os.Exit(2)
		}
		if err := runTiers(flag.Arg(0), *margin); err != nil {
			fmt.Fprintln(os.Stderr, "benchcompare:", err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchcompare [-margin 0.95] old.json new.json")
		os.Exit(2)
	}
	if err := run(flag.Arg(0), flag.Arg(1), *margin); err != nil {
		fmt.Fprintln(os.Stderr, "benchcompare:", err)
		os.Exit(1)
	}
}

func run(oldPath, newPath string, margin float64) error {
	oldArt, err := load(oldPath)
	if err != nil {
		return err
	}
	newArt, err := load(newPath)
	if err != nil {
		return err
	}
	margin = marginOf(newArt, margin)
	if oc, nc := oldArt.Meta.GitCommit, newArt.Meta.GitCommit; oc != "" && nc != "" && oc != nc {
		fmt.Printf("comparing commits %s -> %s (margin %.2f)\n", oc, nc, margin)
	} else {
		fmt.Printf("comparing %s -> %s (margin %.2f)\n", oldPath, newPath, margin)
	}

	oldRows, newRows := map[string]float64{}, map[string]float64{}
	for _, r := range oldArt.Rows {
		oldRows[r.Name] = r.EndToEnd
	}
	for _, r := range newArt.Rows {
		newRows[r.Name] = r.EndToEnd
	}
	if len(newRows) == 0 {
		return fmt.Errorf("%s: no rows found", newPath)
	}

	regressions := 0
	for _, k := range sortedKeys(newRows) {
		nv := newRows[k]
		ov, ok := oldRows[k]
		switch {
		case !ok:
			fmt.Printf("  NEW        %-40s %.3fx\n", k, nv)
		case nv < ov*margin:
			regressions++
			fmt.Printf("  REGRESSION %-40s %.3fx -> %.3fx (below %.3fx floor)\n", k, ov, nv, ov*margin)
		case ov > 0 && nv > ov/margin:
			fmt.Printf("  improved   %-40s %.3fx -> %.3fx\n", k, ov, nv)
		default:
			fmt.Printf("  ok         %-40s %.3fx -> %.3fx\n", k, ov, nv)
		}
	}
	for _, k := range sortedKeys(oldRows) {
		if _, ok := newRows[k]; !ok {
			fmt.Printf("  DROPPED    %-40s was %.3fx\n", k, oldRows[k])
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d end-to-end speedup regression(s) beyond the noise margin", regressions)
	}
	fmt.Println("no regressions")
	return nil
}

// load reads an artifact and refuses any schema but the current one.
func load(path string) (*artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if a.Meta.Schema != eval.BenchSchemaVersion {
		return nil, fmt.Errorf("%s is schema v%d, want v%d — regenerate it with scripts/benchexec",
			path, a.Meta.Schema, eval.BenchSchemaVersion)
	}
	return &a, nil
}

func marginOf(a *artifact, override float64) float64 {
	switch {
	case override > 0:
		return override
	case a.Meta.NoiseMargin > 0:
		return a.Meta.NoiseMargin
	}
	return 0.95
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// runTiers implements -tiers: pair up the walker/compiled rows of one
// artifact by their engine-less identity and report the compiled tier's
// wall-clock speedup over the walker reference.
func runTiers(path string, margin float64) error {
	a, err := load(path)
	if err != nil {
		return err
	}
	margin = marginOf(a, margin)
	fmt.Printf("tier diff of %s (margin %.2f)\n", path, margin)

	rows := map[string]map[string]float64{}
	for _, r := range a.Rows {
		k := fmt.Sprintf("%s/%s/workers=%d", r.Benchmark, r.Technique, r.Workers)
		if rows[k] == nil {
			rows[k] = map[string]float64{}
		}
		rows[k][r.Engine] = r.ParMS.Median
	}

	pairs, regressions := 0, 0
	for _, k := range sortedKeys(rows) {
		wk, haveWk := rows[k]["walker"]
		cp, haveCp := rows[k]["compiled"]
		if !haveWk || !haveCp {
			for eng, ms := range rows[k] {
				fmt.Printf("  UNPAIRED   %-40s engine=%s %.3fms (no counterpart row)\n", k, eng, ms)
			}
			continue
		}
		pairs++
		if cp <= 0 {
			fmt.Printf("  ok         %-40s walker %.3fms, compiled too fast to time\n", k, wk)
			continue
		}
		tier := wk / cp
		if tier < margin {
			regressions++
			fmt.Printf("  REGRESSION %-40s compiled %.3fx of walker (%.3fms -> %.3fms, floor %.3fx)\n", k, tier, wk, cp, margin)
			continue
		}
		fmt.Printf("  ok         %-40s compiled %.2fx over walker (%.3fms -> %.3fms)\n", k, tier, wk, cp)
	}
	if pairs == 0 {
		return fmt.Errorf("%s: no walker/compiled row pairs found", path)
	}
	if regressions > 0 {
		return fmt.Errorf("%d tier regression(s): compiled slower than the walker beyond the noise margin", regressions)
	}
	fmt.Printf("%d tier pair(s), compiled never slower than the walker\n", pairs)
	return nil
}
