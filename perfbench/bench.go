package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/shill"
)

// mode says what an operation records besides its latency and check.
type mode int

const (
	modeTimed   mode = iota // latency and verification only
	modeTraced              // also the program's spans for the operation
	modeCounted             // traced, run alone, plus the audit events it recorded
)

// opResult is one finished operation.
type opResult struct {
	lat  time.Duration
	fail string // empty when the output verified

	// spans are the program's spans for the operation (traced and
	// counted modes).
	spans []shill.Span
	// audit is the number of audit events the operation recorded
	// (counted mode), or -1 when the workload cannot tell.
	audit int64
}

// env is one set-up instance of a workload.
type env interface {
	// clients is how many closed-loop clients drive the timed phase.
	clients() int
	// op runs client c's next operation.
	op(ctx context.Context, c int, m mode) opResult
	// meter reads the machine-level counters the breakdown divides by
	// the operation count; called only between phases.
	meter() meter
	close()
}

// meter is a reading of machine-level counters; zero fields are
// counters the workload's entry points do not expose.
type meter struct {
	auditEmit time.Duration // audit emission time (machines the benchmark owns)
}

func (m meter) sub(o meter) meter { return meter{auditEmit: m.auditEmit - o.auditEmit} }

// workload names a set-up function and its run shape.
type workload struct {
	name string
	// countOps is the length of the traced run's sequential count pass.
	countOps int
	// rate sizes the timed phase: a run of --seconds S performs
	// rate × S operations, about S seconds of work on a 2-core box.
	// The work is fixed rather than the time so that state the program
	// accumulates (audit shards, vnodes, MAC labels) and the GC cycles
	// it triggers are the same in every run.
	rate float64
	// parallel is set when one operation runs processes in parallel
	// (web: httpd and ab), so its kernel-op thread time may exceed its
	// eval window.
	parallel bool
	// setup builds one instance; untraced builds its machines with
	// shill.WithTraceDisabled, the control arm of the tracing overhead.
	setup func(ctx context.Context, seed int64, untraced bool) (env, *setupStats, error)
}

// setupStats are what a set-up reports besides its instance: the
// benchmark's own spans around any snapshot and restore calls, and the
// warm-up operations it ran, which count toward attempted and failed.
type setupStats struct {
	snapshot, restore time.Duration
	warmOps           int
	warmFails         []string
}

// warm runs n warm-up operations, alternating clients, and records
// them in st.
func (st *setupStats) warm(ctx context.Context, e env, n int) {
	for i := 0; i < n; i++ {
		st.warmOps++
		if r := e.op(ctx, i%e.clients(), modeTimed); r.fail != "" {
			st.warmFails = append(st.warmFails, "warm-up: "+r.fail)
		}
	}
}

var workloads = map[string]workload{
	"grade": {name: "grade", countOps: 4, rate: 85, setup: setupGrade},
	"serve": {name: "serve", countOps: 24, rate: 7000, setup: setupServe},
	"web":   {name: "web", countOps: 2, rate: 30, parallel: true, setup: setupWeb},
}

// runParts is how many worker processes an untraced run is split
// into. A process of this program on a shared virtual machine runs at
// a speed of its own: phases inside one process agree within a few
// percent while consecutive processes differ by up to a fifth, so one
// process per run would make every run a single draw of that speed.
const runParts = 6

// partSetups is how many times each part sets the workload up; the
// last instance runs the part's timed phase.
const partSetups = 6

// overheadRounds is how many untraced/traced segment pairs the tracing
// overhead comparison alternates.
const overheadRounds = 5

// batchOps is the smallest batch of a timed phase: enough operations
// for a p90 with ten beyond it.
const batchOps = 100

// maxBatches caps how many batches a timed phase is cut into.
const maxBatches = 20

// part is one worker's raw figures, which the run pools.
type part struct {
	Setups   []time.Duration `json:"setups"`
	Batches  []batch         `json:"batches"`
	Attempts int             `json:"attempts"` // timed operations
	WarmOps  int             `json:"warmOps"`
	Fails    []string        `json:"fails"` // timed and warm-up
	Elapsed  time.Duration   `json:"elapsed"`
	Alloc    uint64          `json:"alloc"`
	Live     uint64          `json:"live"`
	Host     []float64       `json:"host"` // hostProbe before set-up and after the timed phase
}

// partRunner runs part i of an untraced run: in a worker process of
// its own (spawnPart), or in this process (runPart).
type partRunner func(ctx context.Context, w workload, seed int64, seconds, parts, i int) (*part, error)

// partOps is the size of one part's timed phase.
func partOps(w workload, seconds, parts int) int {
	return int(w.rate * float64(seconds) / float64(parts))
}

// instance is a set-up workload together with what its set-ups cost.
type instance struct {
	e                       env
	setups, snaps, restores []time.Duration
	warm                    phase // every set-up's warm-up: verified, not timed
	passes                  []counts
}

// setUp sets the workload up n times, keeping the last instance. With
// count, the last two instances each run a sequential count pass.
func setUp(ctx context.Context, w workload, seed int64, n int, count bool) (*instance, error) {
	in := &instance{}
	for i := 0; i < n; i++ {
		if in.e != nil {
			in.e.close()
			in.e = nil
		}
		// Each set-up starts from a collected heap, so the garbage of the
		// ones before it does not bill it a GC cycle.
		runtime.GC()
		start := time.Now()
		e, st, err := w.setup(ctx, seed, false)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		in.setups = append(in.setups, time.Since(start))
		in.snaps = append(in.snaps, st.snapshot)
		in.restores = append(in.restores, st.restore)
		in.warm.attempts += st.warmOps
		in.warm.fails = append(in.warm.fails, st.warmFails...)
		if count && i >= n-2 {
			in.passes = append(in.passes, countPass(ctx, e, w.countOps))
		}
		in.e = e
	}
	return in, nil
}

// runPart runs part i of an untraced run in this process.
func runPart(ctx context.Context, w workload, seed int64, seconds, parts, i int) (*part, error) {
	ops := partOps(w, seconds, parts)
	if ops < batchOps {
		return nil, fmt.Errorf("%d timed operations per part: p90 needs at least %d; raise --seconds", ops, batchOps)
	}
	host := hostProbe()
	in, err := setUp(ctx, w, seed*runParts+int64(i), partSetups, false)
	if err != nil {
		return nil, err
	}
	defer in.e.close()
	ph := timedPhase(ctx, in.e, ops, modeTimed)
	return &part{
		Host:     []float64{host, hostProbe()},
		Setups:   in.setups,
		Batches:  ph.batches(),
		Attempts: ph.attempts,
		WarmOps:  in.warm.attempts,
		Fails:    append(ph.fails, in.warm.fails...),
		Elapsed:  ph.elapsed,
		Alloc:    ph.alloc,
		Live:     ph.live,
	}, nil
}

// hostProbe times a fixed, cache-resident loop (SHA-256 over one 4 KiB
// block, 20,000 times: tens of milliseconds) and returns its rate in
// MB/s. It is not a metric. The header prints it so that a reader can
// tell a host that ran slow (its CPU shared or clocked down) from a
// program that did.
func hostProbe() float64 {
	const n = 20000
	buf := make([]byte, 4096)
	start := time.Now()
	for i := 0; i < n; i++ {
		sum := sha256.Sum256(buf)
		buf[0] = sum[0]
	}
	return float64(n*len(buf)) / 1e6 / time.Since(start).Seconds()
}

// run measures the workload and builds the report: untraced, from
// parts run one after another by runner; traced, in this process.
func run(ctx context.Context, w workload, seed int64, seconds int, traced bool, parts int, runner partRunner) (*report, error) {
	rep := &report{env: newEnvHeader(w.name, seed, traced)}
	if traced {
		return rep, runTraced(ctx, rep, w, seed, seconds)
	}
	var all []*part
	for i := 0; i < parts; i++ {
		p, err := runner(ctx, w, seed, seconds, parts, i)
		if err != nil {
			return nil, fmt.Errorf("part %d: %w", i+1, err)
		}
		all = append(all, p)
	}
	rep.endToEnd(all)
	return rep, nil
}

// endToEnd pools the parts into the end-to-end metrics. Rate and
// latency percentiles are medians over every part's batches, so
// neither a slow process nor a few seconds of interference from
// outside it move the figure much.
func (r *report) endToEnd(parts []*part) {
	var setups []time.Duration
	var rates, p50s, p90s, lives, host []float64
	var fails []string
	attempts, warm := 0, 0
	var alloc uint64
	var elapsed time.Duration
	for i, p := range parts {
		setups = append(setups, p.Setups...)
		var pr, p5, p9 []float64
		for _, b := range p.Batches {
			pr = append(pr, b.Rate)
			p5 = append(p5, ms(b.P50))
			p9 = append(p9, ms(b.P90))
		}
		rates, p50s, p90s = append(rates, pr...), append(p50s, p5...), append(p90s, p9...)
		r.parts = append(r.parts, fmt.Sprintf("part %d: %d batches, ops_per_s %.2f p50_ms %.4f p90_ms %.4f setup_s %.4f host_ref_mbps %.0f",
			i+1, len(p.Batches), medianf(pr), medianf(p5), medianf(p9), median(p.Setups).Seconds(), medianf(p.Host)))
		lives = append(lives, float64(p.Live)/1e6)
		host = append(host, p.Host...)
		fails = append(fails, p.Fails...)
		attempts += p.Attempts
		warm += p.WarmOps
		alloc += p.Alloc
		elapsed += p.Elapsed
	}
	r.Attempted, r.Failed = attempts+warm, len(fails)
	r.Correct = len(fails) == 0
	r.failures = failureSummary(fails)
	r.env.Parts, r.env.Setups = len(parts), len(setups)
	r.env.Ops, r.env.Samples, r.env.WarmOps = attempts, attempts, warm
	r.env.Batches, r.env.Seconds = len(rates), elapsed.Seconds()
	r.env.HostRef = medianf(host)
	r.Metrics = map[string]metric{
		"ops_per_s":       {medianf(rates), "1/s"},
		"p50_ms":          {medianf(p50s), "ms"},
		"p90_ms":          {medianf(p90s), "ms"},
		"ok_frac":         {float64(r.Attempted-r.Failed) / float64(r.Attempted), "frac"},
		"setup_s":         {median(setups).Seconds(), "s"},
		"alloc_kb_per_op": {float64(alloc) / 1024 / float64(attempts), "kB"},
		"live_heap_mb":    {medianf(lives), "MB"},
	}
}

// runTraced is the traced run: the per-layer breakdown, its
// self-checks, and the tracing overhead, all in this process.
func runTraced(ctx context.Context, rep *report, w workload, seed int64, seconds int) error {
	ops := partOps(w, seconds, 1)
	in, err := setUp(ctx, w, seed, partSetups, true)
	if err != nil {
		return err
	}
	e := in.e
	defer e.close()
	if err := in.passes[0].sameAs(in.passes[1]); err != nil {
		return err
	}
	// The tracing overhead compares the shipped configuration with an
	// instance whose machines are built with tracing off. Their segments
	// alternate, so state both accumulate over the run slows them alike.
	ctl, st, err := w.setup(ctx, seed, true)
	if err != nil {
		return fmt.Errorf("untraced set-up: %w", err)
	}
	defer ctl.close()
	warm := in.warm
	warm.attempts += st.warmOps
	warm.fails = append(warm.fails, st.warmFails...)
	var off, on phase
	seg := ops / (4 * overheadRounds)
	for i := 0; i < overheadRounds; i++ {
		off.merge(timedPhase(ctx, ctl, seg, modeTimed))
		on.merge(timedPhase(ctx, e, seg, modeTimed))
	}
	// The breakdown's own phase records and folds the spans.
	m0 := e.meter()
	tr := timedPhase(ctx, e, ops/2, modeTraced)
	used := e.meter().sub(m0)

	all := tr
	all.merge(off)
	all.merge(on)
	all.merge(warm)
	for _, c := range in.passes {
		all.attempts += c.ops
		all.fails = append(all.fails, c.fails...)
	}
	rep.Attempted, rep.Failed = all.attempts, len(all.fails)
	rep.Correct = len(all.fails) == 0
	rep.failures = failureSummary(all.fails)
	rep.env.Parts, rep.env.Setups = 1, len(in.setups)
	rep.env.Ops, rep.env.Samples, rep.env.WarmOps = all.attempts, len(all.ops), warm.attempts
	rep.env.Seconds = all.elapsed.Seconds()

	if rep.Metrics, err = breakdown(w, tr, in.passes[1], used); err != nil {
		return err
	}
	rateOff, rateOn := off.okRate(), on.okRate()
	rep.Metrics["bench.trace_overhead_frac"] = metric{(rateOff - rateOn) / rateOff, "frac"}
	gc := 0.0
	if on.usedCPU > 0 {
		gc = on.gcCPU / on.usedCPU
	}
	rep.Metrics["runtime.gc_cpu_frac"] = metric{gc, "frac"}
	rep.Metrics["shill.snapshot_ms"] = metric{ms(median(in.snaps)), "ms"}
	rep.Metrics["shill.restore_ms"] = metric{ms(median(in.restores)), "ms"}
	return nil
}

// done is one finished operation of a timed phase.
type done struct {
	end time.Time
	lat time.Duration
	ok  bool
}

// phase is one timed phase's raw figures.
type phase struct {
	start    time.Time
	ops      []done // in completion order (timed phases)
	fails    []string
	attempts int
	elapsed  time.Duration
	alloc    uint64 // heap bytes allocated during the phase
	live     uint64 // live heap after the closing forced GC
	gcCPU    float64
	usedCPU  float64
	tally    tally // traced mode only
}

// timedPhase drives the workload's clients closed-loop until they have
// performed ops operations between them.
func timedPhase(ctx context.Context, e env, ops int, m mode) phase {
	runtime.GC()
	before := readRuntime()
	n := e.clients()
	parts := make([]phase, n)
	var issued atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &parts[c]
			for issued.Add(1) <= int64(ops) {
				r := e.op(ctx, c, m)
				p.attempts++
				p.ops = append(p.ops, done{time.Now(), r.lat, r.fail == ""})
				if r.fail != "" {
					p.fails = append(p.fails, r.fail)
				}
				if m != modeTimed {
					p.tally.add(r)
				}
			}
		}(c)
	}
	wg.Wait()
	ph := phase{start: start}
	ph.elapsed = time.Since(start)
	allocs := readRuntime()
	runtime.GC()
	after := readRuntime()
	for i := range parts {
		ph.merge(parts[i])
	}
	sort.Slice(ph.ops, func(i, j int) bool { return ph.ops[i].end.Before(ph.ops[j].end) })
	ph.alloc = allocs.allocs - before.allocs
	ph.live = after.live
	ph.gcCPU = after.gcCPU - before.gcCPU
	ph.usedCPU = (after.totalCPU - after.idleCPU) - (before.totalCPU - before.idleCPU)
	return ph
}

// merge folds another phase's operations into p; elapsed time and
// allocation add, so two back-to-back phases read as one.
func (p *phase) merge(o phase) {
	if p.start.IsZero() {
		p.start = o.start
	}
	p.ops = append(p.ops, o.ops...)
	p.fails = append(p.fails, o.fails...)
	p.attempts += o.attempts
	p.elapsed += o.elapsed
	p.alloc += o.alloc
	if o.live > 0 {
		p.live = o.live
	}
	p.gcCPU += o.gcCPU
	p.usedCPU += o.usedCPU
	p.tally.merge(o.tally)
}

func (p *phase) okRate() float64 {
	return float64(p.attempts-len(p.fails)) / p.elapsed.Seconds()
}

// batch is a run of consecutive completions within a timed phase.
type batch struct {
	Rate float64       `json:"rate"` // verified operations per second
	P50  time.Duration `json:"p50"`
	P90  time.Duration `json:"p90"`
}

// batches cuts a timed phase's completions into equal runs of at
// least batchOps operations, in completion order. The clients never
// pause between batches: a batch's time runs from the previous batch's
// last completion to its own.
func (p *phase) batches() []batch {
	nb := len(p.ops) / batchOps
	if nb > maxBatches {
		nb = maxBatches
	}
	size := len(p.ops) / nb
	out := make([]batch, 0, nb)
	from := p.start
	for b := 0; b < nb; b++ {
		seg := p.ops[b*size : (b+1)*size]
		ok := 0
		lats := make([]time.Duration, len(seg))
		for i, d := range seg {
			lats[i] = d.lat
			if d.ok {
				ok++
			}
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		to := seg[len(seg)-1].end
		out = append(out, batch{
			Rate: float64(ok) / to.Sub(from).Seconds(),
			P50:  rank(lats, 0.50),
			P90:  rank(lats, 0.90),
		})
		from = to
	}
	return out
}

// rank is the nearest-rank percentile of sorted latencies.
func rank(sorted []time.Duration, q float64) time.Duration {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func medianf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runtimeReading is the subset of runtime/metrics the benchmark reads.
type runtimeReading struct {
	allocs, live             uint64
	gcCPU, totalCPU, idleCPU float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/live:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeReading {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeReading{
		allocs:   s[0].Value.Uint64(),
		live:     s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
		totalCPU: s[3].Value.Float64(),
		idleCPU:  s[4].Value.Float64(),
	}
}
