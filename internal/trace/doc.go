// Package trace is the end-to-end request tracing layer: a lock-free,
// ring-buffered span recorder that decomposes a request into timed
// spans — admission, queue wait, machine/session acquire, script
// resolve, parse/compile, eval, aggregated kernel ops — and threads a
// trace ID through the stack via context.
//
// # Design
//
// The recorder follows internal/audit's design discipline: a fixed
// array of atomic slots with an atomic cursor (no locks on the emit
// path), plus a bounded per-trace span buffer so a finished run can
// hand its spans back without scanning the ring. Spans are recorded at
// completion only; the ring never holds half-open spans.
//
// Two granularities coexist:
//
//   - Pipeline spans (request, queue, acquire, resolve, run, compile,
//     eval, and each sandbox's setup and exec) are individually timed
//     regions opened with Ref.Start and closed with Active.End, or
//     recorded pre-measured with Ref.Add.
//   - Aggregated spans carry a Count: one per non-empty category of the
//     machine's profile collector (internal/prof), covering the Figure
//     10 rows (startup, sandbox-setup, sandbox-exec, contract-check,
//     audit-emit) and kernel ops (op-vfs, op-net, op-policy), which are
//     far too frequent to record one span each; the collector counts
//     every operation and times a 1-in-64 sample (scaled). Session.Run
//     builds them from one snapshot delta, the same delta that becomes
//     Result.Prof, and records them with its run span through
//     Active.Finish. Those closing spans bypass the per-trace buffer
//     cap, and the run span's Detail reports any spans the cap refused
//     ("dropped=N").
//
// # Attribution caveat
//
// The profile collector is machine-wide: a run's aggregated spans are
// snapshot deltas over shared counters, so concurrent sessions on one
// machine bleed into each other's windows. Per-run pipeline spans are
// exact; aggregated spans are attribution, not accounting.
//
// # Threading
//
// shilld mints a trace per admitted request and stores it in the
// request context (NewContext); shill.Session.Run picks it up
// (FromContext) or starts its own for direct embedders. The trace ID
// is stamped on audit denials (audit.DenyReason.TraceID), so
// why-denied output links a denial back to the exact request — and the
// position of the deny within its span tree shows when in the request
// the denial landed.
//
// Every method on Recorder, Ref, and Active is nil-safe: a
// disabled configuration threads nils through the same call sites and
// pays one nil check per operation.
package trace
