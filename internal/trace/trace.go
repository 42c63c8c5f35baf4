package trace

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind identifies what a span measures. The first block is the serving
// pipeline (request admission through evaluation); the second block is
// the Figure 10 categories of internal/prof; the third block is its
// kernel-op categories. Kinds of the last two blocks also name the
// aggregated spans a run emits from its profile delta.
type Kind uint8

// Span kinds.
const (
	KindRequest       Kind = iota // whole wire request (shilld)
	KindQueue                     // admission-queue wait
	KindAcquire                   // tenant machine/session acquire
	KindResolve                   // script resolution
	KindRun                       // whole Session.Run
	KindCompile                   // parse/compile (detail: engine, cache hit/miss)
	KindEval                      // script evaluation
	KindStartup                   // prof.Startup: interpreter construction
	KindSandboxSetup              // prof.SandboxSetup
	KindSandboxExec               // prof.SandboxExec
	KindContractCheck             // prof.ContractCheck
	KindAuditEmit                 // prof.AuditEmit
	KindOpVFS                     // prof.VFS: aggregated vfs operations
	KindOpNet                     // prof.Net: aggregated netstack operations
	KindOpPolicy                  // prof.Policy: aggregated MAC policy checks
	numKinds
)

var kindNames = [numKinds]string{
	"request", "queue", "acquire", "resolve", "run", "compile", "eval",
	"startup", "sandbox-setup", "sandbox-exec", "contract-check",
	"audit-emit", "op-vfs", "op-net", "op-policy",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// MarshalJSON renders the kind as its name, so wire consumers (the
// /v1/trace endpoint, Result.Trace) see "compile" rather than 5.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON accepts a kind name.
func (k *Kind) UnmarshalJSON(b []byte) error {
	name := string(b)
	if len(name) >= 2 && name[0] == '"' {
		name = name[1 : len(name)-1]
	}
	for i, n := range kindNames {
		if n == name {
			*k = Kind(i)
			return nil
		}
	}
	*k = numKinds // preserved as "unknown"; never an error on the read path
	return nil
}

// Span is one completed, timed region of a request. Spans are recorded
// at completion (start plus duration), so rings and per-trace buffers
// only ever hold finished spans. Aggregated spans (the op-* kinds and
// the prof categories) fold many operations into one span and carry the
// fold count.
type Span struct {
	Seq    uint64        `json:"seq"`
	Trace  uint64        `json:"traceId"`
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Kind   Kind          `json:"kind"`
	Name   string        `json:"name,omitempty"`
	Detail string        `json:"detail,omitempty"`
	Start  time.Time     `json:"start"`
	Dur    time.Duration `json:"durNs"`
	Count  int64         `json:"count,omitempty"`
}

// DefaultRingSize is the recorder's span-ring capacity.
const DefaultRingSize = 8192

// maxTraceSpans bounds the per-trace span buffer, the same
// bounded-memory discipline as audit's per-session shards: a runaway
// trace overwrites nothing and allocates no further. Only the closing
// spans of Active.Finish (a bounded handful per run) go past it.
const maxTraceSpans = 128

// Recorder is a lock-free, ring-buffered span store, built like
// internal/audit's Log: a fixed array of atomic slots and an atomic
// cursor, so concurrent emitters never contend on a lock and memory
// stays bounded. Queries (Since, TraceSpans) read whatever complete
// spans the ring still holds.
type Recorder struct {
	enabled atomic.Bool
	ids     atomic.Uint64 // allocator for trace and span IDs
	seq     atomic.Uint64 // monotone emission sequence
	cursor  atomic.Uint64
	size    int
	// ring is allocated on first emit, not at construction: machine
	// boot — especially image restore, which is held to microseconds —
	// must not pay for zeroing a 64KB span ring it may never use.
	ring atomic.Pointer[[]atomic.Pointer[Span]]
}

// NewRecorder returns an enabled recorder with the given ring size
// (DefaultRingSize if size <= 0).
func NewRecorder(size int) *Recorder {
	if size <= 0 {
		size = DefaultRingSize
	}
	r := &Recorder{size: size}
	r.enabled.Store(true)
	return r
}

// slots returns the span ring, allocating it on first use. A losing
// racer's allocation is discarded; both see the published ring.
func (r *Recorder) slots() []atomic.Pointer[Span] {
	if p := r.ring.Load(); p != nil {
		return *p
	}
	fresh := make([]atomic.Pointer[Span], r.size)
	if r.ring.CompareAndSwap(nil, &fresh) {
		return fresh
	}
	return *r.ring.Load()
}

// Enabled reports whether the recorder accepts spans. Nil-safe.
func (r *Recorder) Enabled() bool { return r != nil && r.enabled.Load() }

// SetEnabled toggles span recording. Nil-safe.
func (r *Recorder) SetEnabled(on bool) {
	if r != nil {
		r.enabled.Store(on)
	}
}

// Seq returns the recorder's emission high-water mark; pass it back to
// Since for incremental reads.
func (r *Recorder) Seq() uint64 {
	if r == nil {
		return 0
	}
	return r.seq.Load()
}

// emit assigns the span a sequence number and stores it in the ring.
func (r *Recorder) emit(s *Span) {
	s.Seq = r.seq.Add(1)
	slot := r.cursor.Add(1) - 1
	ring := r.slots()
	ring[slot%uint64(len(ring))].Store(s)
}

// Since returns every span still in the ring with Seq > since, in
// emission order.
func (r *Recorder) Since(since uint64) []Span {
	if r == nil {
		return nil
	}
	var out []Span
	ring := r.ring.Load()
	if ring == nil {
		return nil
	}
	for i := range *ring {
		if p := (*ring)[i].Load(); p != nil && p.Seq > since {
			out = append(out, *p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// TraceSpans returns every span still in the ring belonging to the
// given trace, in emission order.
func (r *Recorder) TraceSpans(traceID uint64) []Span {
	if r == nil || traceID == 0 {
		return nil
	}
	var out []Span
	ring := r.ring.Load()
	if ring == nil {
		return nil
	}
	for i := range *ring {
		if p := (*ring)[i].Load(); p != nil && p.Trace == traceID {
			out = append(out, *p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// NewTrace mints a trace: a fresh trace ID and a per-trace span buffer.
// Returns nil when the recorder is disabled (or nil); every Ref and
// Active method is nil-safe, so callers thread the result through
// unconditionally and a disabled configuration pays only this check.
func (r *Recorder) NewTrace() *Ref {
	if !r.Enabled() {
		return nil
	}
	return &Ref{rec: r, id: r.ids.Add(1)}
}

// Ref is one live trace: it carries the trace ID, emits spans into the
// owning recorder's ring, and keeps its own bounded copy of the trace's
// spans so a finished run can return them without scanning the ring.
type Ref struct {
	rec *Recorder
	id  uint64

	mu      sync.Mutex
	spans   []Span
	dropped int
}

// TraceID returns the trace's ID (0 for a nil ref).
func (t *Ref) TraceID() uint64 {
	if t == nil {
		return 0
	}
	return t.id
}

// Start opens a span under the given parent span ID (0 for a root
// span). Nil-safe: a nil ref returns a nil Active whose methods no-op.
func (t *Ref) Start(parent uint64, kind Kind, name string) *Active {
	if t == nil {
		return nil
	}
	return &Active{
		ref: t,
		span: Span{
			Trace: t.id, ID: t.rec.ids.Add(1), Parent: parent,
			Kind: kind, Name: name, Start: time.Now(),
		},
	}
}

// Add records a pre-measured span (a sandbox's setup or execution):
// the trace ID and an ID are filled in, Start/Dur/Count are the
// caller's.
func (t *Ref) Add(s Span) {
	if t == nil {
		return
	}
	s.Trace = t.id
	if s.ID == 0 {
		s.ID = t.rec.ids.Add(1)
	}
	t.record(s, false)
}

// record emits s into the ring and keeps a copy in the trace's buffer;
// a full buffer refuses the copy unless the span is closing.
func (t *Ref) record(s Span, closing bool) {
	t.rec.emit(&s)
	t.mu.Lock()
	if closing || len(t.spans) < maxTraceSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// Spans returns a copy of the trace's recorded spans in emission order.
func (t *Ref) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Dropped reports spans the per-trace buffer refused (ring emission
// still happened).
func (t *Ref) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Active is an open span. It is not safe for concurrent use; one
// goroutine opens and ends it.
type Active struct {
	ref  *Ref
	span Span
}

// ID returns the span's ID, for parenting children under it.
func (a *Active) ID() uint64 {
	if a == nil {
		return 0
	}
	return a.span.ID
}

// SetDetail attaches free-form detail (engine, cache hit/miss, outcome).
func (a *Active) SetDetail(d string) {
	if a != nil {
		a.span.Detail = d
	}
}

// End closes the span, records it, and returns its duration.
func (a *Active) End() time.Duration {
	if a == nil {
		return 0
	}
	a.span.Dur = time.Since(a.span.Start)
	a.ref.record(a.span, false)
	return a.span.Dur
}

// Finish closes a run's span together with its aggregated children,
// which the caller bounds to one per profile category. These closing
// spans summarize everything else in the run, so they bypass the
// per-trace cap instead of being the ones a full buffer loses; when the
// cap refused earlier spans, the span's Detail says how many
// ("dropped=N").
func (a *Active) Finish(children []Span) time.Duration {
	if a == nil {
		return 0
	}
	t := a.ref
	for _, c := range children {
		c.Trace, c.ID, c.Parent = t.id, t.rec.ids.Add(1), a.span.ID
		t.record(c, true)
	}
	if n := t.Dropped(); n > 0 {
		a.span.Detail = strings.TrimSpace(a.span.Detail + " dropped=" + strconv.Itoa(n))
	}
	a.span.Dur = time.Since(a.span.Start)
	t.record(a.span, true)
	return a.span.Dur
}
