// tracecheck validates a Chrome trace-event JSON file produced by
// internal/obs (benchexec -trace, noelle-load -trace, ...): the
// document must parse, contain at least one complete ("X") event, name
// every process and thread it uses, and keep each thread's event
// timestamps monotonically non-decreasing with non-negative durations.
// CI's trace-smoke step runs it over the execution bench's trace before
// uploading the file as a build artifact.
//
// Usage: go run ./scripts/tracecheck trace.json
package main

import (
	"encoding/json"
	"fmt"
	"os"
)

type event struct {
	Name string   `json:"name"`
	Ph   string   `json:"ph"`
	Pid  int      `json:"pid"`
	Tid  int      `json:"tid"`
	Ts   *float64 `json:"ts"`
	Dur  *float64 `json:"dur"`
}

type doc struct {
	TraceEvents []event `json:"traceEvents"`
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck trace.json")
		os.Exit(2)
	}
	if err := run(os.Args[1]); err != nil {
		fmt.Fprintln(os.Stderr, "tracecheck:", err)
		os.Exit(1)
	}
}

func run(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var d doc
	if err := json.Unmarshal(data, &d); err != nil {
		return fmt.Errorf("%s: not well-formed trace JSON: %w", path, err)
	}

	type lane struct{ pid, tid int }
	named := map[lane]bool{}
	procNamed := map[int]bool{}
	lastTs := map[lane]float64{}
	complete := 0
	for i, e := range d.TraceEvents {
		switch e.Ph {
		case "M":
			switch e.Name {
			case "process_name":
				procNamed[e.Pid] = true
			case "thread_name":
				named[lane{e.Pid, e.Tid}] = true
			}
		case "X":
			if e.Ts == nil || e.Dur == nil {
				return fmt.Errorf("event %d (%s): complete event missing ts/dur", i, e.Name)
			}
			if *e.Dur < 0 {
				return fmt.Errorf("event %d (%s): negative duration %g", i, e.Name, *e.Dur)
			}
			l := lane{e.Pid, e.Tid}
			if !procNamed[e.Pid] || !named[l] {
				return fmt.Errorf("event %d (%s): pid %d / tid %d not named by metadata", i, e.Name, e.Pid, e.Tid)
			}
			if prev, ok := lastTs[l]; ok && *e.Ts < prev {
				return fmt.Errorf("event %d (%s): timestamp %g before previous %g on pid %d tid %d",
					i, e.Name, *e.Ts, prev, e.Pid, e.Tid)
			}
			lastTs[l] = *e.Ts
			complete++
		default:
			return fmt.Errorf("event %d (%s): unexpected phase %q", i, e.Name, e.Ph)
		}
	}
	if complete == 0 {
		return fmt.Errorf("%s: no complete events — the traced run recorded nothing", path)
	}
	fmt.Printf("%s: ok (%d events, %d lanes, %d processes)\n", path, complete, len(lastTs), len(procNamed))
	return nil
}
