package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/shill"
)

// The per-layer breakdown folds two sources: the benchmark's own span
// around each call (the operation's wall time) and the spans the
// program already emits for the operation (Result.Trace,
// RunResponse.Trace). Pipeline spans (request, acquire, queue, compile,
// eval) are exact per run. Aggregated spans (op-vfs, op-net, op-policy
// and the profile categories) are deltas of machine-wide counters over
// the run's window, so concurrent runs on one machine both see each
// other's work. Those layers are therefore reported as count per
// operation × time per count: the count comes from a sequential count
// pass (one operation at a time, so every window holds exactly one
// operation's work and the counts repeat exactly), the time per count
// from the traced phase's spans, where double-counted windows inflate
// count and time alike. Every layer is reported as estimated; none is
// capped to fit what another layer left over, so a layer that claims
// time it cannot have fails the self-check in breakdown.

// aggKind indexes the aggregated span kinds the breakdown reads.
type aggKind int

const (
	aggVFS aggKind = iota
	aggNet
	aggPolicy
	aggContract
	aggSandboxSetup
	aggSandboxExec
	numAgg
)

func aggOf(sp shill.Span) (aggKind, bool) {
	if sp.Count == 0 {
		// Individual sandbox spans carry no count; the aggregated
		// profile spans for the same kinds do, and cover every sandbox.
		return 0, false
	}
	switch sp.Kind {
	case shill.SpanOpVFS:
		return aggVFS, true
	case shill.SpanOpNet:
		return aggNet, true
	case shill.SpanOpPolicy:
		return aggPolicy, true
	case shill.SpanContractCheck:
		return aggContract, true
	case shill.SpanSandboxSetup:
		return aggSandboxSetup, true
	case shill.SpanSandboxExec:
		return aggSandboxExec, true
	}
	return 0, false
}

// tally sums traced operations.
type tally struct {
	n int
	// server is shilld's part of a request: from the start of machine
	// acquire to the end of the run. The request span itself closes after
	// the response is shaped, so it is not on the wire.
	wall, server, acquire, queue, compile, eval, run time.Duration
	compiles, hits                                   int
	count, nanos                                     [numAgg]int64
	audit, auditKnown                                int64
}

func (t *tally) add(r opResult) {
	t.n++
	t.wall += r.lat
	var first, last time.Time
	for _, sp := range r.spans {
		switch sp.Kind {
		case shill.SpanAcquire, shill.SpanResolve, shill.SpanQueue, shill.SpanRun:
			if first.IsZero() || sp.Start.Before(first) {
				first = sp.Start
			}
			if end := sp.Start.Add(sp.Dur); end.After(last) {
				last = end
			}
		}
		switch sp.Kind {
		case shill.SpanAcquire:
			t.acquire += sp.Dur
		case shill.SpanQueue:
			t.queue += sp.Dur
		case shill.SpanRun:
			t.run += sp.Dur
		case shill.SpanCompile:
			t.compile += sp.Dur
			t.compiles++
			if strings.Contains(sp.Detail, "cache=hit") {
				t.hits++
			}
		case shill.SpanEval:
			t.eval += sp.Dur
		}
		if k, ok := aggOf(sp); ok {
			t.count[k] += sp.Count
			t.nanos[k] += int64(sp.Dur)
		}
	}
	if throughShilld(r.spans) {
		t.server += last.Sub(first)
	}
	if r.audit >= 0 {
		t.audit += r.audit
		t.auditKnown++
	}
}

// throughShilld reports whether the spans came through shilld, whose
// requests always begin with a machine acquire.
func throughShilld(spans []shill.Span) bool {
	for _, sp := range spans {
		if sp.Kind == shill.SpanAcquire {
			return true
		}
	}
	return false
}

func (t *tally) merge(o tally) {
	t.n += o.n
	t.wall += o.wall
	t.server += o.server
	t.acquire += o.acquire
	t.queue += o.queue
	t.run += o.run
	t.compile += o.compile
	t.eval += o.eval
	t.compiles += o.compiles
	t.hits += o.hits
	for k := range t.count {
		t.count[k] += o.count[k]
		t.nanos[k] += o.nanos[k]
	}
	t.audit += o.audit
	t.auditKnown += o.auditKnown
}

// counts are the exact per-operation counters of one count pass.
type counts struct {
	ops   int
	agg   [numAgg]int64
	audit int64
	known int64 // operations whose audit events were counted
	fails []string
}

func (c counts) perOp(k aggKind) float64 { return float64(c.agg[k]) / float64(c.ops) }

func (c counts) auditPerOp() float64 {
	if c.known == 0 {
		return 0
	}
	return float64(c.audit) / float64(c.known)
}

// countPass runs n operations one at a time, alternating clients, and
// sums their counters.
func countPass(ctx context.Context, e env, n int) counts {
	var t tally
	c := counts{ops: n}
	for i := 0; i < n; i++ {
		r := e.op(ctx, i%e.clients(), modeCounted)
		if r.fail != "" {
			c.fails = append(c.fails, r.fail)
		}
		t.add(r)
	}
	c.agg = t.count
	c.audit, c.known = t.audit, t.auditKnown
	return c
}

// sameAs is the exactness self-check: two count passes over two set-ups
// of the same seed must agree on every exact counter.
func (c counts) sameAs(o counts) error {
	names := map[aggKind]string{
		aggVFS: "vfs.ops", aggPolicy: "mac.checks", aggSandboxSetup: "sandbox.setups",
	}
	for k, name := range names {
		if c.agg[k] != o.agg[k] {
			return fmt.Errorf("breakdown self-check: %s over %d operations differs between two set-ups of one seed: %d vs %d",
				name, c.ops, c.agg[k], o.agg[k])
		}
	}
	return nil
}

// partition are the self times that, with the unattributed remainder,
// make up an operation's wall time. They come from spans that nest
// without overlapping on one operation's path: the round trip holds
// acquire, queue and Session.Run; the run holds compile and eval; eval
// holds the contract checks and the sandboxes it sets up and runs one
// at a time.
var partition = []string{
	"server.http_ms", "server.acquire_ms", "server.queue_ms", "shill.run_ms",
	"lang.compile_ms", "lang.eval_ms", "contract.check_ms",
	"sandbox.setup_ms", "sandbox.exec_ms", "bench.unattributed_ms",
}

// nested are the layers whose time is spent inside the partition's
// eval and sandbox spans: kernel operations and audit emission, made
// by the script itself and by the sandboxed programs it runs. They are
// thread time, so when an operation runs processes in parallel (web:
// httpd and ab), or a sampled socket read parks, they can add up to
// more than the eval window; bench.overlap_ms is that excess.
var nested = []string{"vfs.ms", "mac.check_ms", "netstack.ms", "audit.emit_ms"}

// slack is how far below zero a derived self time may fall, as a share
// of the operation's wall time, before the breakdown is refused: the
// aggregated layers are 1-in-64 samples, so a derived remainder carries
// their sampling error.
const slack = 0.01

// breakdown derives the per-layer metrics from the traced phase, the
// count pass, and the machine-level counters over the traced phase.
// It fails when a derived self time is negative beyond slack, or when
// nested time exceeds the eval window on a workload whose operations
// run one process at a time: either means two layers claim the same
// time.
func breakdown(w workload, tr phase, cnt counts, used meter) (map[string]metric, error) {
	t := tr.tally
	if t.n == 0 {
		return nil, fmt.Errorf("traced phase ran no operations")
	}
	n := float64(t.n)
	per := func(d time.Duration) float64 { return ms(d) / n }
	// aggMs is time per count in the traced phase × exact count per op.
	aggMs := func(k aggKind) float64 {
		if t.count[k] == 0 {
			return 0
		}
		return float64(t.nanos[k]) / float64(t.count[k]) / 1e6 * cnt.perOp(k)
	}

	wall := per(t.wall)
	out := map[string]metric{}
	set := func(name string, v float64, unit string) { out[name] = metric{v, unit} }

	var http float64
	if t.server > 0 {
		http = per(t.wall - t.server)
	}
	acquire, queue, run := per(t.acquire), per(t.queue), per(t.run)
	compile, eval := per(t.compile), per(t.eval)
	contract, sbSetup, sbExec := aggMs(aggContract), aggMs(aggSandboxSetup), aggMs(aggSandboxExec)
	set("server.http_ms", http, "ms")
	set("server.acquire_ms", acquire, "ms")
	set("server.queue_ms", queue, "ms")
	// Session.Run's own time: console, audit window, profile and trace
	// assembly around compile and eval.
	set("shill.run_ms", run-compile-eval, "ms")
	set("lang.compile_ms", compile, "ms")
	set("lang.eval_ms", eval-contract-sbSetup-sbExec, "ms")
	set("contract.check_ms", contract, "ms")
	set("sandbox.setup_ms", sbSetup, "ms")
	set("sandbox.exec_ms", sbExec, "ms")
	set("bench.unattributed_ms", wall-http-acquire-queue-run, "ms")

	set("vfs.ms", aggMs(aggVFS), "ms")
	set("mac.check_ms", aggMs(aggPolicy), "ms")
	set("netstack.ms", aggMs(aggNet), "ms")
	set("audit.emit_ms", per(used.auditEmit), "ms")

	// Self-check: no self time is negative, the partition adds up to the
	// wall time, and nested time fits in eval unless the operation runs
	// processes in parallel.
	var sum float64
	for _, name := range partition {
		v := out[name].Value
		if v < -slack*wall {
			return nil, fmt.Errorf("breakdown self-check: %s = %.6f ms of a %.6f ms operation", name, v, wall)
		}
		sum += v
	}
	if math.Abs(sum-wall) > 1e-6*wall {
		return nil, fmt.Errorf("breakdown self-check: self times add up to %.6f ms, op wall is %.6f ms", sum, wall)
	}
	var inEval float64
	for _, name := range nested {
		inEval += out[name].Value
	}
	overlap := inEval - eval
	if !w.parallel && overlap > slack*wall {
		return nil, fmt.Errorf("breakdown self-check: kernel-op and audit time (%.6f ms) exceeds the eval window (%.6f ms) of an operation that runs one process at a time",
			inEval, eval)
	}
	set("bench.overlap_ms", math.Max(0, overlap), "ms")

	set("bench.op_wall_ms", wall, "ms")
	set("bench.unattributed_frac", out["bench.unattributed_ms"].Value/wall, "frac")
	hit := 0.0
	if t.compiles > 0 {
		hit = float64(t.hits) / float64(t.compiles)
	}
	set("lang.compile_hit_frac", hit, "frac")
	set("contract.checks_per_op", cnt.perOp(aggContract), "count")
	set("mac.checks_per_op", cnt.perOp(aggPolicy), "count")
	set("vfs.ops_per_op", cnt.perOp(aggVFS), "count")
	set("netstack.ops_per_op", cnt.perOp(aggNet), "count")
	set("sandbox.setups_per_op", cnt.perOp(aggSandboxSetup), "count")
	set("audit.events_per_op", cnt.auditPerOp(), "count")
	return out, nil
}
