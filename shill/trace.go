package shill

import (
	"context"

	"repro/internal/prof"
	"repro/internal/trace"
)

// Aliases re-exporting the tracing vocabulary embedders need to read a
// Result's span tree or drive a machine's recorder, without importing
// internal packages.

// Span is one completed interval of a request trace: a node in the span
// tree Result.Trace carries and /v1/trace serves.
type Span = trace.Span

// SpanKind names what a span measures ("request", "queue", "compile",
// "eval", "op-vfs", ...).
type SpanKind = trace.Kind

// TraceRecorder is the machine-wide lock-free span ring (see
// Machine.Tracer).
type TraceRecorder = trace.Recorder

// TraceRef is one live trace: the handle spans are recorded against.
type TraceRef = trace.Ref

// profSpanKinds maps each profile category to the kind of the
// aggregated span a run emits for it.
var profSpanKinds = [prof.NumCategories]trace.Kind{
	prof.Startup:       trace.KindStartup,
	prof.SandboxSetup:  trace.KindSandboxSetup,
	prof.SandboxExec:   trace.KindSandboxExec,
	prof.ContractCheck: trace.KindContractCheck,
	prof.AuditEmit:     trace.KindAuditEmit,
	prof.VFS:           trace.KindOpVFS,
	prof.Net:           trace.KindOpNet,
	prof.Policy:        trace.KindOpPolicy,
}

// Span kinds, re-exported for switch statements over Result.Trace.
const (
	SpanRequest       = trace.KindRequest
	SpanQueue         = trace.KindQueue
	SpanAcquire       = trace.KindAcquire
	SpanResolve       = trace.KindResolve
	SpanRun           = trace.KindRun
	SpanCompile       = trace.KindCompile
	SpanEval          = trace.KindEval
	SpanStartup       = trace.KindStartup
	SpanSandboxSetup  = trace.KindSandboxSetup
	SpanSandboxExec   = trace.KindSandboxExec
	SpanContractCheck = trace.KindContractCheck
	SpanAuditEmit     = trace.KindAuditEmit
	SpanOpVFS         = trace.KindOpVFS
	SpanOpNet         = trace.KindOpNet
	SpanOpPolicy      = trace.KindOpPolicy
)

// NewTraceContext returns a context carrying an open trace: Session.Run
// records its run span (and everything below it) into ref as a child of
// parent instead of minting a trace of its own. shilld uses this to
// thread one trace from request admission through queue wait down to
// kernel ops.
func NewTraceContext(ctx context.Context, ref *TraceRef, parent uint64) context.Context {
	return trace.NewContext(ctx, &trace.Context{Ref: ref, Parent: parent})
}
