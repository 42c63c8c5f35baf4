package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the subset of BENCHMARK.json the tests check
// against.
type benchmarkFile struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// smokeSeconds sizes each smoke run: enough operations for a p90 with
// ten beyond it, and no more.
var smokeSeconds = map[string]int{"grade": 2, "serve": 1, "web": 5}

// TestSmoke runs every workload briefly in both modes. Every operation
// must verify, and the printed metrics must be exactly the ones
// BENCHMARK.json lists, with its units.
func TestSmoke(t *testing.T) {
	b := readBenchmarkFile(t)
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json lists workload %q that perfbench does not run", w.Name)
		}
	}
	for name, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			w, traced := w, traced
			t.Run(name+map[bool]string{false: "/e2e", true: "/traced"}[traced], func(t *testing.T) {
				rep, err := run(context.Background(), w, 1, smokeSeconds[name], traced, 1, runPart)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Failed != 0 || !rep.Correct {
					t.Errorf("%d of %d operations failed their checks: %s",
						rep.Failed, rep.Attempted, strings.Join(rep.failures, "; "))
				}
				got := lastLine(t, rep)
				if len(got.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json lists %d", len(got.Metrics), len(want))
				}
				for _, m := range want {
					g, ok := got.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not printed", m.Name)
					} else if g.Unit != m.Unit {
						t.Errorf("metric %s printed in %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
					}
				}
				if !traced && got.Metrics["ok_frac"].Value != 1 {
					t.Errorf("ok_frac = %v", got.Metrics["ok_frac"].Value)
				}
				if traced {
					checkPredictedZeros(t, name, got.Metrics)
				}
			})
		}
	}
}

// lastLine prints the report and parses its last line, which must hold
// exactly the four result keys.
func lastLine(t *testing.T, rep *report) report {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.print(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !strings.HasPrefix(lines[0], "# env {") {
		t.Errorf("first line is not the environment header: %q", lines[0])
	}
	last := lines[len(lines)-1]
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(last), &keys); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("last line lacks %q", k)
		}
	}
	if len(keys) != 4 {
		t.Errorf("last line has %d keys, want 4", len(keys))
	}
	var got report
	if err := json.Unmarshal([]byte(last), &got); err != nil {
		t.Fatal(err)
	}
	return got
}

// checkPredictedZeros holds the breakdown to the layers each workload
// is chosen to cross or bypass.
func checkPredictedZeros(t *testing.T, name string, m map[string]metric) {
	t.Helper()
	v := func(k string) float64 { return m[k].Value }
	if crosses := v("netstack.ops_per_op") > 0; crosses != (name == "web") {
		t.Errorf("netstack.ops_per_op = %v on %s; only web crosses netstack", v("netstack.ops_per_op"), name)
	}
	if sandboxed := v("sandbox.setups_per_op") > 0; sandboxed != (name == "grade" || name == "web") {
		t.Errorf("sandbox.setups_per_op = %v on %s; only grade and web run sandboxes", v("sandbox.setups_per_op"), name)
	}
	if viaServer := v("server.http_ms") > 0; viaServer != (name == "serve") {
		t.Errorf("server.http_ms = %v on %s; only serve goes through shilld", v("server.http_ms"), name)
	}
	if name == "serve" && v("server.acquire_ms") > 0.05*v("bench.op_wall_ms") {
		t.Errorf("server.acquire_ms = %v on serve, where every tenant stays resident", v("server.acquire_ms"))
	}
	if name != "web" && v("bench.overlap_ms") != 0 {
		t.Errorf("bench.overlap_ms = %v on %s, whose operations run one process at a time", v("bench.overlap_ms"), name)
	}
}

// TestBreakdownRefusesOverclaim holds the breakdown's self-check to
// failing when layers claim time the operation did not have, instead of
// trimming them to fit.
func TestBreakdownRefusesOverclaim(t *testing.T) {
	ms := time.Millisecond
	traced := func(exec, vfs time.Duration) phase {
		var p phase
		p.tally = tally{n: 1, wall: 10 * ms, run: 9 * ms, compile: ms / 2, eval: 8 * ms}
		p.tally.count[aggSandboxExec], p.tally.nanos[aggSandboxExec] = 1, int64(exec)
		p.tally.count[aggVFS], p.tally.nanos[aggVFS] = 1, int64(vfs)
		return p
	}
	cnt := counts{ops: 1}
	cnt.agg[aggSandboxExec], cnt.agg[aggVFS] = 1, 1
	seq, par := workload{name: "seq"}, workload{name: "par", parallel: true}

	m, err := breakdown(seq, traced(6*ms, ms), cnt, meter{})
	if err != nil {
		t.Fatalf("consistent breakdown refused: %v", err)
	}
	if got := m["lang.eval_ms"].Value; math.Abs(got-2) > 1e-9 {
		t.Errorf("lang.eval_ms = %v, want eval 8 - sandbox exec 6 = 2", got)
	}
	if _, err := breakdown(seq, traced(9*ms, ms), cnt, meter{}); err == nil {
		t.Error("sandbox exec longer than eval passed the self-check")
	}
	if _, err := breakdown(seq, traced(6*ms, 9*ms), cnt, meter{}); err == nil {
		t.Error("kernel-op time longer than eval passed the self-check on a one-process workload")
	}
	m, err = breakdown(par, traced(6*ms, 9*ms), cnt, meter{})
	if err != nil {
		t.Fatalf("parallel workload refused: %v", err)
	}
	if got := m["bench.overlap_ms"].Value; math.Abs(got-1) > 1e-9 {
		t.Errorf("bench.overlap_ms = %v, want nested 9 - eval 8 = 1", got)
	}
}
