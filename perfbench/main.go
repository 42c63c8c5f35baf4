// Command perfbench is the repository benchmark: one invocation runs one
// named workload against the SHILL reproduction through its public
// entry points (shill.NewMachine, RestoreMachine, Machine.Snapshot,
// Session.Run, Machine.RunApache, shilld's server.New(...).Handler()
// over loopback httptest, and loadgen.Run for shilld warm-ups), checks
// every operation's output, and prints its metrics by name and unit,
// the result object last:
//
//	sh perfbench/run.sh --workload grade --seed 1 --seconds 30 --trace 0
//
// --seconds sizes the timed phase as a fixed number of operations,
// about that many seconds of work on a 2-core box. The work is fixed
// rather than the time, so the state the program accumulates during a
// run (retained vnodes, MAC labels and privilege maps on a long-lived
// machine, audit shards on tenants) and the GC cycles it costs are the
// same in every run.
//
// An untraced run is six worker processes run one after another (the
// program re-runs itself with --part and waits for each). Each worker
// sets the workload up six times and drives the last instance through
// a sixth of the work; the run pools the workers' figures. One process
// of this program on a shared virtual machine runs at a speed of its
// own, so a run of one process is one draw of that speed. The traced
// run stays in one process.
//
// # Workloads
//
//   - grade: the paper's headline case study (§4.1) on the
//     restored-machine path that shilld golden images and scenario
//     fixtures use. The course is built cold, one private course per
//     session is staged, the machine is snapshotted, and two sessions
//     grade on the machine restored from that image in ModeShill
//     (DefaultGrading: 8 students, 4 tests, cheater and vandal). One
//     operation is one course graded by one session, checked against the
//     grades the course definition implies. Most of its time is lang
//     eval, mac, sandbox and vfs; it bypasses server and netstack.
//   - serve: shilld's per-request overhead (HTTP/JSON, admission,
//     machine and session acquire, parse, audit denial provenance). Two
//     closed-loop clients, four resident tenants on cold-built demo
//     machines, 70% legacy allow and 30% legacy deny probes; an allow
//     must print "ok", a deny must carry capability-layer provenance for
//     the missing write. It bypasses sandbox exec, copy-on-write layers
//     and netstack.
//   - web: the Apache case study (Machine.RunApache in ModeShill), the
//     only workload that crosses netstack and moves bulk bytes from vfs
//     to sockets: a sandboxed httpd serves the 4 MB file to the
//     in-machine ab at concurrency = nproc, and every request must
//     arrive whole. It runs here and in the tests, but BENCHMARK.json
//     does not list it: when the host steals CPU time (20–57 CPU-seconds
//     of two vCPUs during a 47–76 s run), web's p90 rises by half or
//     more, and in two sets of ten runs its p90_ms spread by 0.39 and
//     0.50 of the median, beyond the 0.25 bound, while grade and serve
//     stayed within it.
//     Its traced run (--workload web --trace 1) is the netstack
//     breakdown.
//
// A fourth workload the benchmark was meant to have, churn (tenant
// eviction and warm restore on nearly every request), is left out: it
// loses a tenant's write across eviction a few times per ten thousand
// requests (ROADMAP open item 1), and a benchmark workload must run
// without failed operations. It can join once that item is fixed.
//
// The seed drives the request order and the tenant visiting order.
// grade and web have no order to vary; their inputs are the fixed case
// studies.
//
// # End-to-end metrics (--trace 0)
//
// Every workload reports the same seven:
//
//	ops_per_s        1/s   verified operations per second of the timed phase
//	p50_ms           ms    median operation latency
//	p90_ms           ms    90th-percentile latency (at least 10 operations lie beyond it)
//	ok_frac          frac  verified operations / attempted operations, warm-ups included
//	setup_s          s     machine build, staging, image capture and warm-up (median of 36 set-ups)
//	alloc_kb_per_op  kB    heap bytes allocated per operation (runtime/metrics /gc/heap/allocs:bytes)
//	live_heap_mb     MB    live heap after a forced GC at the end of a worker's timed phase
//
// Each worker's timed phase is cut, in completion order, into up to 20
// batches of at least 100 operations; ops_per_s, p50_ms and p90_ms are
// medians over the batches of all six workers, and live_heap_mb is the
// median over the workers. The clients never pause between batches.
//
// # Per-layer metrics (--trace 1)
//
// A traced run is a separate process; its numbers never feed the
// end-to-end metrics. Each layer metric is per operation unless its
// unit or name says otherwise, and each should move the end-to-end
// metric named here:
//
//	runtime.gc_cpu_frac                      ops_per_s on grade and serve, p90_ms on serve
//	server.queue_ms, server.http_ms          p50_ms and ops_per_s on serve; zero on grade and web
//	server.acquire_ms                        about 0 on serve, where every tenant stays resident
//	shill.snapshot_ms, shill.restore_ms      grade setup_s (per call, timed by the benchmark)
//	shill.run_ms                             Session.Run's own work around parse and eval: serve p50_ms
//	lang.compile_ms, lang.compile_hit_frac   serve p50_ms (one compile per request)
//	lang.eval_ms, contract.check_ms, contract.checks_per_op  grade ops_per_s
//	mac.checks_per_op, mac.check_ms          grade and web ops_per_s, serve deny latency
//	vfs.ops_per_op, vfs.ms                   grade ops_per_s (copy-on-write reads)
//	netstack.ops_per_op, netstack.ms         web ops_per_s; zero elsewhere
//	sandbox.setups_per_op, sandbox.setup_ms, sandbox.exec_ms  grade and web ops_per_s; zero on serve
//	audit.events_per_op, audit.emit_ms       serve p50_ms (deny path), grade
//	bench.op_wall_ms, bench.unattributed_ms, bench.unattributed_frac, bench.overlap_ms
//	                                         checks on the breakdown itself
//	bench.trace_overhead_frac                throughput lost to the program's always-on tracing
//
// The layer times are folded from the benchmark's own span around each
// call and the spans the program already emits (Result.Trace,
// RunResponse.Trace); layers.go says how. Two kinds of layer time are
// reported. The partition (server.*_ms, shill.run_ms, lang.*_ms,
// contract.check_ms, sandbox.*_ms and bench.unattributed_ms) adds up to
// the operation's wall time, each term measured or derived from spans
// that nest without overlapping. The nested layers (vfs.ms,
// mac.check_ms, netstack.ms, audit.emit_ms) are thread time spent
// inside eval and the sandboxes, by the script and by the programs it
// runs. The traced run fails if a partition term is negative beyond
// sampling error, if nested time exceeds the eval window on a workload
// whose operations run one process at a time (grade, serve), or if the
// exact counters differ between two set-ups of the same seed. On web,
// where httpd and ab run in parallel and sampled socket reads park,
// nested time exceeds eval, and bench.overlap_ms reports by how much.
// Where the program emits nothing, the layer reads 0 rather than a
// guess: contract.* (no contract-check profile samples are recorded),
// audit.emit_ms on serve (shilld does not expose its tenant machines'
// emit cost), and lang.compile_hit_frac while the tree-walk engine,
// which has no compile cache, is the default.
//
// bench.trace_overhead_frac compares the shipped configuration, where
// tracing is always on, with an instance built with
// shill.WithTraceDisabled, in alternating untraced segments; only the
// traced run builds that second instance.
//
// # Noise
//
// Earlier attempts at this benchmark moved by 6–9% between two
// measurements of the same code; these rules come from that:
//
//   - No simulated sleeps (no spawn latency, no cancel probes with an
//     80 ms timer, no Retry-After waits): a timer measures the timer.
//   - No GOGC, GOMAXPROCS or other runtime setting the shipped binaries
//     do not set. GC is the dominant cost (half or more of the CPU on
//     grade and web) and the main source of noise; alloc_kb_per_op,
//     which repeats to a fraction of a percent, shows the GC pressure.
//   - Load from the measured process itself, with at most nproc
//     concurrent clients or sessions, a fixed amount of work, and
//     runtime.GC() before each set-up and between set-up and the timed
//     phase. Workers run one at a time, never side by side.
//   - No p99 or maximum latency (they swung 5× between runs) and no CPU
//     time per operation (it moved 9% between identical runs).
//   - Set-up is repeated and its median reported, since one set-up is
//     tens of milliseconds and swings by a third.
//   - Rate and latency are medians over batches of about a second, from
//     six worker processes. An allocation-heavy workload on a shared
//     virtual machine wanders by 10–20% from one second to the next even
//     when the host steals no CPU time (a cache-resident loop holds
//     within 5%), and two processes of the same program differ by up to
//     a fifth while phases within one process agree within a few
//     percent. One process per run spread serve's figures by 10–16%
//     over ten seeds; six workers per run brought that to 7–17% in sets
//     of ten runs with little host steal.
//   - Nothing here removes drift of the host itself. On one 2-vCPU
//     virtual machine, ten-run medians of the same build moved by up to
//     a fifth between sets taken minutes apart, and single runs were
//     up to half again faster or a third slower than their set's
//     median, on all three workloads at once. Each worker therefore
//     times a fixed cache-resident loop before set-up and after its
//     timed phase (hostProbe); the header prints its median as
//     hostRefMBps, so a reader can tell a slow host from a slow
//     program. It feeds no metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
)

func main() {
	workload := flag.String("workload", "", "workload to run: grade, serve or web")
	seed := flag.Int64("seed", 1, "seed for the request and tenant order")
	seconds := flag.Int("seconds", 20, "size of the timed phase, in seconds of work on a 2-core box")
	traced := flag.Int("trace", 0, "1 prints the per-layer breakdown instead of the end-to-end metrics")
	partIdx := flag.Int("part", -1, "run only this part of an untraced run and print its raw figures (the run's worker processes)")
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload grade|serve|web --seed N --seconds N --trace 0|1")
		os.Exit(2)
	}
	ctx := context.Background()
	if *partIdx >= 0 {
		p, err := runPart(ctx, w, *seed, *seconds, runParts, *partIdx)
		if err == nil {
			err = json.NewEncoder(os.Stdout).Encode(p)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	rep, err := run(ctx, w, *seed, *seconds, *traced == 1, runParts, spawnPart)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// spawnPart runs part i in a worker process of this program and waits
// for it to end.
func spawnPart(ctx context.Context, w workload, seed int64, seconds, _, i int) (*part, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--part", strconv.Itoa(i))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("worker: %w", err)
	}
	var p part
	if err := json.Unmarshal(out, &p); err != nil {
		return nil, fmt.Errorf("worker output: %w", err)
	}
	return &p, nil
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything a run prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	env      envHeader
	failures []string
	parts    []string // one line per worker: its batch medians
}

// envHeader records where and on what a run measured.
type envHeader struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	Commit     string  `json:"commit"`
	Parts      int     `json:"parts"`
	Ops        int     `json:"ops"`
	Samples    int     `json:"latencySamples"`
	Batches    int     `json:"batches,omitempty"`
	WarmOps    int     `json:"warmOps"`
	Setups     int     `json:"setups"`
	Seconds    float64 `json:"timedSeconds"`
	HostRef    float64 `json:"hostRefMBps,omitempty"` // median hostProbe rate over the parts
}

func newEnvHeader(name string, seed int64, traced bool) envHeader {
	return envHeader{
		Workload: name, Seed: seed, Trace: traced,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(),
	}
}

// commit names the source revision the binary was built from, when the
// build saw a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// print writes the environment header, any failed checks, and the
// result object as the last line.
func (r *report) print(w io.Writer) error {
	hdr, err := json.Marshal(r.env)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# env %s\n", hdr)
	for _, p := range r.parts {
		fmt.Fprintf(w, "# %s\n", p)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "# check failed: %s\n", f)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "# %-28s %14.6f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	out, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// failureSummary folds repeated failure messages into counts, so a run
// with many failed operations prints each distinct check once.
func failureSummary(fails []string) []string {
	count := map[string]int{}
	var order []string
	for _, f := range fails {
		if count[f] == 0 {
			order = append(order, f)
		}
		count[f]++
	}
	out := make([]string, 0, len(order))
	for _, f := range order {
		out = append(out, fmt.Sprintf("%s (%d operations)", f, count[f]))
	}
	return out
}
