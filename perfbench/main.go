// Command perfbench is the repository benchmark: it drives the NOELLE
// reproduction through its public packages on one of four workloads,
// checks every output against a reference, and prints one JSON result
// line. See README.md for the workloads and metrics.
//
//	go run . --workload corpus-compile --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 a separate traced run carries the per-layer metrics and the
// span tree is written under --out.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// stealPeriod is how often the host's steal time is sampled between
// the readings taken around each operation.
const stealPeriod = 250 * time.Millisecond

// setupReps is how many times a run repeats its workload's set-up; the
// reported setup_s is their median.
const setupReps = 3

// env is what every workload receives.
type env struct {
	seed    int64
	seconds time.Duration
	traced  bool
	nproc   int
	dir     string // scratch space inside the checkout
	steal   *stealWatch
	speed   *hostSpeed
}

// outcome is what a workload measured. failed counts every failed
// operation; unexpected counts those that are not the corpus's known
// miscompile (see knownFailure), and any of them makes the run
// incorrect. e2e and layer hold metric values by name (see metrics.go).
type outcome struct {
	attempted, failed, unexpected int
	e2e, layer                    map[string]float64
	tr                            *tracer
}

func newOutcome(tr *tracer) *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, tr: tr}
}

// workload is one benchmark input set; BENCHMARK.json records why each
// was chosen.
type workload struct {
	name string
	run  func(*env) (*outcome, error)
}

var workloads = []workload{
	{"corpus-compile", runCorpus},
	{"doall-exec", runDoall},
	{"pipeline-exec", runPipeline},
	{"serve-mix", runServe},
}

// runInfo describes the configuration one run measured.
type runInfo struct {
	Workload        string `json:"workload"`
	Seed            int64  `json:"seed"`
	Seconds         int    `json:"seconds"`
	Traced          bool   `json:"traced"`
	NProc           int    `json:"nproc"`
	GOMAXPROCS      int    `json:"gomaxprocs"`
	Engine          string `json:"engine"`
	Cores           int    `json:"cores"`
	DispatchWorkers int    `json:"dispatch_workers"`
	Commit          string `json:"commit"`
	SourceDigest    string `json:"source_digest"`
	GoVersion       string `json:"go_version"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measurement time per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer variant")
	out := flag.String("out", ".bench_build/perfbench", "directory for the trace file and scratch files")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool, out string) error {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	nproc := runtime.NumCPU()
	info := runInfo{
		Workload: name, Seed: seed, Seconds: seconds, Traced: traced,
		NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0),
		Engine: "compiled", Cores: nproc, DispatchWorkers: nproc,
		Commit: gitCommit(), SourceDigest: sourceDigest("."), GoVersion: runtime.Version(),
	}
	infoLine, _ := json.Marshal(info)
	fmt.Printf("run %s\n", infoLine)

	steal := watchSteal(nproc, stealPeriod, time.Duration(seconds)*time.Second)
	speed := &hostSpeed{}
	o, err := wl.run(&env{seed: seed, seconds: time.Duration(seconds) * time.Second, traced: traced,
		nproc: nproc, dir: out, steal: steal, speed: speed})
	fmt.Println(steal.report())
	fmt.Printf("host: reference kernel %.4f ms (median of %d, nominal %.1f ms)\n",
		median(speed.ms), len(speed.ms), refNominalMS)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	res, err := o.result(traced)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if traced && o.tr != nil {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
		path := filepath.Join(out, fmt.Sprintf("trace-%s-seed%d.json", name, seed))
		if err := o.tr.write(path, info, res); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Printf("trace %s (%d spans)\n", path, len(o.tr.spans))
	}
	if !traced {
		named := map[string]float64{"failed_frac": float64(res.Failed) / float64(res.Attempted)}
		for _, n := range workloadNames[name] {
			named[n[0]] = res.Metrics[n[1]].Value
		}
		line, _ := json.Marshal(named)
		fmt.Printf("named %s\n", line)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// result selects the metrics the mode reports and refuses to print a
// result that lacks any of them. The workloads have already converted
// every time to the nominal host (see calib.go).
func (o *outcome) result(traced bool) (*result, error) {
	defs, vals := e2eMetrics, o.e2e
	if traced {
		defs, vals = layerMetrics, o.layer
	}
	res := &result{Correct: o.unexpected == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	if o.attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured (%v)", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

// gitCommit names the checked-out commit, or "unknown" when the
// working directory is not the top of a git work tree (the source
// digest still identifies the code).
func gitCommit() string {
	top, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	if err != nil {
		return "unknown"
	}
	wd, err := os.Getwd()
	if err != nil || filepath.Clean(strings.TrimSpace(string(top))) != filepath.Clean(wd) {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file under root, so a
// run records which code it measured even without git.
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		io.WriteString(h, path)
		io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
