// Package repro is a from-scratch Go reproduction of SHILL: A Secure
// Shell Scripting Language (Moore, Dimoulas, King, Chong; OSDI 2014).
//
// The supported entry surface is the public embedding package
// repro/shill: shill.NewMachine assembles a simulated machine,
// Machine.NewSession hands out first-class sessions (own process, own
// console, own audit window), and Session.Run executes SHILL scripts
// under a context.Context — cancellation stops the eval loop and wakes
// blocking kernel waits, and every Result carries the run's console
// output, windowed denial provenance, and profile samples. The
// command-line tools, examples, and benchmarks all build on it.
//
// The mechanism lives under internal/: a simulated FreeBSD-like kernel
// (vfs, mac, kernel, netstack), SHILL's capability and contract layers
// (priv, cap, contract, wallet), the capability-based sandbox and the
// simulated native executables it confines (sandbox, binaries), the
// SHILL language itself (lang, stdlib), the capability provenance and
// audit subsystem (audit), and machine assembly plus workload staging
// (core). See README.md for the architecture map, DESIGN.md for the
// full inventory, and EXPERIMENTS.md for the paper-versus-measured
// results.
//
// # Audit trail and explainable denials
//
// internal/audit records every security-relevant decision in an
// always-on, sharded, lock-free event log: syscall allow/deny with the
// deciding layer (DAC, MAC policy, SHILL policy), capability grants and
// propagation, capability minting/derivation lineage, contract check
// outcomes, and sandbox spawn/exit. Deny paths return structured
// *audit.DenyReason errors that unwrap to the usual errno sentinels, so
// errors.Is keeps working while the message names the missing
// privilege and the contract that withheld it. Inspect a run with
//
//	shill -audit script.ambient
//	shill-sandbox -audit -- command ...
//	shill-audit report|trace PATH|why-denied script.ambient
//
// Overhead is measured by BenchmarkParallelGrading's audit=true/false
// dimension (acceptance: <5% scripts/sec; measured ≈0-2%) and
// attributed in the Figure-10 breakdown via prof.AuditEmit, one
// category of the machine's single profile collector (Machine.Prof),
// whose per-run delta is both Result.Prof and the run's aggregated
// trace spans.
//
// The benchmarks in bench_test.go regenerate every figure of the
// paper's evaluation:
//
//	go test -bench BenchmarkFigure9  .   # case-study wall times
//	go test -bench BenchmarkFigure10 .   # performance breakdown
//	go test -bench BenchmarkFigure11 .   # syscall microbenchmarks
//
// or run cmd/benchfig for paper-style tables.
//
// # Testing
//
// The tier-1 gate is
//
//	go build ./... && go test ./...
//
// The kernel serves concurrent sandbox sessions (see shill/parallel.go
// and shill/session.go), so the concurrency-sensitive packages should
// also be run under the race detector — CI does both, plus the
// embedding-boundary guard (scripts/check-api-boundary.sh: cmd/* and
// examples/* must not import internal/core) and the godoc examples
// (go test ./shill -run Example):
//
//	go vet ./...
//	go test -race -timeout=5m ./...
//
// The multi-session workload itself is exercised by the parallel tests
// in shill/parallel_test.go, the cancellation contract by
// shill/cancel_test.go (a runaway script cancelled via context deadline
// returns promptly, leaks nothing, and leaves its session reusable),
// and throughput is measured by
//
//	go test -bench BenchmarkParallelGrading .
//
// which grades N private courses concurrently (sessions=1, 4, 16; with
// the audit trail on and off), each session in its own runtime process
// with its own console device, and reports aggregate scripts/sec.
// Config.SpawnLatency simulates the real testbed's fork/exec cost so
// the scaling reflects overlap of genuine per-sandbox blocking.
//
// Fuzzing (internal/lang/fuzz_test.go): the parser must never panic and
// sandboxed evaluation must never escape its granted capabilities.
// Plain `go test` replays the seed corpus; run the engines with
//
//	go test ./internal/lang -fuzz=FuzzParse -fuzztime=30s
//	go test ./internal/lang -fuzz=FuzzEval  -fuzztime=30s
//
// Both corpora are seeded with grammar-generated structured programs
// (committed under internal/lang/testdata/fuzz/), so byte mutation
// starts from inputs that already exercise contracts, sandboxes, and
// sockets.
//
// # Generative conformance and the differential security oracle
//
// The paper's §2.3 security claim is a property over all programs, so
// beyond the hand-written conformance tests the tree carries a
// generative harness:
//
//   - internal/gen emits seed-deterministic, well-typed SHILL programs
//     (built as lang ASTs via the exported builders, rendered through
//     lang.Render) together with a Manifest of every path, port, and
//     privilege the program may exercise. Each program renders as a
//     paired capability-sandboxed variant (provide contract = exactly
//     the manifest's grants) and an ambient variant (bare provide).
//   - internal/oracle executes both variants on shill.Machine sessions
//     and checks three properties per program: no-escape (filesystem +
//     netstack snapshot diff confined to the manifest, via
//     Machine.SnapshotFS and Machine.NetListeners), DAC-conjunction
//     (at the first divergent op, sandboxed success implies ambient
//     success), and deny-provenance (every sandbox-only failure is
//     explained by an audit.DenyReason naming a privilege absent from
//     the manifest, and no capability denial names a granted one).
//   - cmd/shill-soak runs generated pairs continuously across K
//     concurrent sessions of one shared machine and greedily minimizes
//     any failure to a small reproducer (-seed, -n, -duration,
//     -sessions, -json).
//
// Determinism is the debugging contract: a failure is reproducible from
// its printed seed alone,
//
//	go test ./internal/oracle -run TestGeneratedConformance -short           # >=200 pairs
//	go test ./internal/oracle -run TestGeneratedConformance -gen.seed=S -gen.n=1
//	go run ./cmd/shill-soak -duration 30s -json SOAK.json
//
// # The execution service (shilld)
//
// internal/server + cmd/shilld turn the embedding API into a
// multi-tenant HTTP/JSON daemon — the trust model of the paper
// (running untrusted scripts safely) as a network service. Clients
// POST {tenant, script|scriptName|argv, args, deadlineMs, stream} to
// /v1/run and receive {exitStatus, console, denials, elapsedNs, ...},
// where denials is the run's []*audit.DenyReason — layer, op, object,
// missing privileges, contract blame — JSON round-trippable (decoded
// reasons still satisfy errors.Is against the errno sentinels), so a
// rejected request is explainable over the wire. GET
// /v1/audit/why-denied?tenant=T serves audit.Explain, the same query
// path cmd/shill-audit prints, with full capability lineage.
//
// Isolation is per-tenant machines (own kernel, image, netstack, audit
// log) in an LRU registry bounded by MaxMachines; admission control is
// a bounded queue plus per-tenant concurrency quotas (429 +
// Retry-After on overload); request deadlines and client disconnects
// feed Session.Run's context, so an abandoned request kills its
// sandboxed process tree (proved by internal/server tests). Runs end
// with a socket sweep (lang.Interp.CloseLeftoverSockets): a cancelled
// script's listeners do not stay bound on the pooled session.
// Operability: /healthz, /metrics (req/s, queue depth, active runs,
// per-machine shill.MachineStats), and graceful SIGTERM drain that
// finishes in-flight runs and closes every machine.
//
// cmd/shill-load is the closed-loop load generator (concurrency, an
// allow/deny/cancel mix, latency percentiles, response-shape checks);
// `benchfig -fig serve` drives it against an in-process daemon and
// writes BENCH_serve.json; scripts/shilld-smoke.sh is the end-to-end
// CI smoke (32 mixed clients, why-denied JSON assertions, clean
// SIGTERM drain).
package repro
