// Command shill-soak runs generated conformance programs against the
// differential security oracle, continuously, across concurrent
// sessions of one shared machine — the soak harness for the §2.3
// security property. Every program is a paired sandboxed/ambient
// rendering of one grammar-generated script; the oracle checks
// no-escape, DAC-conjunction, and deny-provenance per program and
// minimizes any failure to a small reproducer.
//
// A slice of the iteration budget (-scenario-pct, default 25%) is dealt
// to the scenario registry instead: each such iteration runs one
// declared realistic workload bundle three-way (ambient, sandboxed,
// oracle) under internal/scenario, so the soak exercises curated
// multi-step behaviour alongside the generated corpus. -scenarios
// selects which bundles by attr expression.
//
// Usage:
//
//	shill-soak -duration 30s                  # time-budgeted soak
//	shill-soak -n 2000 -sessions 8            # count-budgeted soak
//	shill-soak -seed 7 -json soak.json        # reproducible + artifact
//	shill-soak -scenario-pct 0                # generated programs only
//
// A failing run exits 1; the printed (and JSON-recorded) per-program
// seeds replay deterministically:
//
//	go test ./internal/oracle -run TestGeneratedConformance -gen.seed=<seed> -gen.n=1
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"repro/internal/oracle"
	"repro/internal/scenario"
	"repro/shill"
)

func main() {
	var (
		seed     = flag.Int64("seed", 1, "base seed; program i derives its own seed from it")
		n        = flag.Int("n", 0, "stop after this many programs (0: duration-bounded only)")
		duration = flag.Duration("duration", 30*time.Second, "stop generating after this long (0: count-bounded only)")
		sessions = flag.Int("sessions", 4, "concurrent sessions on the shared machine")
		jsonPath = flag.String("json", "", "write the soak report as JSON to this file")
		noMin    = flag.Bool("nominimize", false, "skip failure minimization")
		verbose  = flag.Bool("v", false, "log progress and failures as they happen")
		scPct    = flag.Int("scenario-pct", 25, "percent of iterations that run a registry scenario three-way instead of a generated program (0: disable)")
		scAttr   = flag.String("scenarios", "!slow", "attr expression selecting the scenarios the soak samples")
	)
	flag.Parse()
	// A count budget without an explicit -duration means "run until the
	// count is reached" — the 30s duration default only applies when no
	// -n was given, so `shill-soak -n 2000` really checks 2000 pairs.
	durationSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "duration" {
			durationSet = true
		}
	})
	if *n > 0 && !durationSet {
		*duration = 0
	}
	if *n == 0 && *duration == 0 {
		fmt.Fprintln(os.Stderr, "shill-soak: need -n or -duration")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	opts := oracle.SoakOptions{
		Seed:     *seed,
		Sessions: *sessions,
		Duration: *duration,
		Programs: *n,
		Minimize: !*noMin,
		Logf:     logf,
	}
	if *scPct > 0 {
		scs, serr := scenario.Select(*scAttr)
		if serr != nil {
			fmt.Fprintf(os.Stderr, "shill-soak: %v\n", serr)
			os.Exit(2)
		}
		if len(scs) == 0 {
			fmt.Fprintf(os.Stderr, "shill-soak: -scenarios %q selects no scenarios\n", *scAttr)
			os.Exit(2)
		}
		modes := []scenario.Mode{scenario.ModeAmbient, scenario.ModeSandboxed, scenario.ModeOracle}
		opts.ScenarioPct = *scPct
		opts.Scenario = func(ctx context.Context, i int64) (string, []string) {
			sc := scs[int(i)%len(scs)]
			res := scenario.RunScenario(ctx, sc, modes, shill.EngineCompiled)
			var fails []string
			for _, mr := range res.Modes {
				if mr.Verdict == "failed" || mr.Verdict == "violation" {
					fails = append(fails, fmt.Sprintf("%s/%s %s: %s %s", sc.Name, mr.Mode, mr.Verdict, mr.Kind, mr.Detail))
				}
			}
			return sc.Name, fails
		}
	}

	report, err := oracle.Soak(ctx, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shill-soak: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("shill-soak: seed %d: %d programs (%d ops) + %d scenario runs across %d sessions in %.1fs — %d sandbox-only failures explained, %d windowed denials, %d live sockets at end\n",
		report.Seed, report.Programs, report.Ops, report.ScenarioRuns, report.Sessions, report.Elapsed,
		report.Divergences, report.Denials, report.LiveSockets)
	for _, f := range report.Failures {
		if f.Scenario != "" {
			fmt.Printf("FAILURE scenario %s (session %d): %v\n", f.Scenario, f.Session, f.Violations)
			continue
		}
		fmt.Printf("FAILURE seed %d (session %d, %d ops): %v\n", f.Seed, f.Session, f.Ops, f.Violations)
		if f.MinimizedModule != "" {
			fmt.Printf("  minimized to %d ops:\n%s\n", f.MinimizedOps, f.MinimizedModule)
		}
	}

	if *jsonPath != "" {
		data, merr := json.MarshalIndent(report, "", "  ")
		if merr == nil {
			merr = os.WriteFile(*jsonPath, append(data, '\n'), 0o644)
		}
		if merr != nil {
			fmt.Fprintf(os.Stderr, "shill-soak: writing %s: %v\n", *jsonPath, merr)
			os.Exit(1)
		}
	}

	if !report.Ok() {
		os.Exit(1)
	}
}
