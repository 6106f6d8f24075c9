package eval

import (
	"os/exec"
	"runtime"
	"strings"

	"noelle/internal/interp"
)

// BenchSchemaVersion is the current layout version of the BENCH_*.json
// artifacts. Bump it when a field changes meaning or moves, so
// scripts/benchcompare can refuse to diff artifacts that do not speak
// the same schema.
// Version 3 added per-row and meta "engine" fields (execution tiers).
// Version 4 replaced the seq-vs-par "speedup" with end_to_end_speedup
// over the original program and made the timing columns
// median/min/max objects (the execution study, BENCH_exec.json).
const BenchSchemaVersion = 4

// BenchMeta is the shared metadata block every BENCH_*.json artifact
// embeds: enough provenance to judge whether two artifacts are
// comparable (same code? same core count?) and how much measured delta
// is noise. One helper builds it so the bench scripts cannot drift
// apart.
type BenchMeta struct {
	Schema    int    `json:"schema"`
	GitCommit string `json:"git_commit,omitempty"`
	GoVersion string `json:"go_version"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	CPUs      int    `json:"cpus"`
	// GOMAXPROCS bounds the true parallelism of every measured run; on a
	// single-core container all speedups hover around 1x by construction.
	GOMAXPROCS int `json:"gomaxprocs"`
	// NoiseMargin is the fraction of a reference measurement a new one
	// may drop to before it counts as a regression (e.g. 0.95 = 5% slack).
	NoiseMargin float64 `json:"noise_margin"`
	GeneratedBy string  `json:"generated_by"`
	// Engine is the process-default interpreter execution tier at
	// generation time. Individual rows may override it (artifacts with
	// per-engine rows record each row's tier in its own "engine" field).
	Engine string `json:"engine"`
}

// NewBenchMeta builds the metadata block for one artifact writer.
func NewBenchMeta(generatedBy string, noiseMargin float64) BenchMeta {
	return BenchMeta{
		Schema:      BenchSchemaVersion,
		GitCommit:   gitCommit(),
		GoVersion:   runtime.Version(),
		OS:          runtime.GOOS,
		Arch:        runtime.GOARCH,
		CPUs:        runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NoiseMargin: noiseMargin,
		GeneratedBy: generatedBy,
		Engine:      string(interp.DefaultEngine()),
	}
}

// gitCommit resolves the working tree's HEAD (short form), or "" when
// git or the repository is unavailable — provenance is best-effort, an
// artifact without it is still valid.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
