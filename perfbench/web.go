package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/prof"
	"repro/shill"
)

// webRequestsPerClient sizes one web operation: ab sends this many
// requests per concurrent connection.
const webRequestsPerClient = 4

// webWarmOps is the warm-up's length in Apache runs.
const webWarmOps = 2

// webEnv runs the Apache case study on one machine.
type webEnv struct {
	m *shill.Machine
	w shill.ApacheWorkload
}

func setupWeb(ctx context.Context, _ int64, untraced bool) (env, *setupStats, error) {
	opts := []shill.Option{shill.WithWorkload(shill.WorkloadApache)}
	if untraced {
		opts = append(opts, shill.WithTraceDisabled())
	}
	m, err := shill.NewMachine(opts...)
	if err != nil {
		return nil, nil, err
	}
	w := shill.DefaultApache
	w.Concurrency = runtime.NumCPU()
	w.Requests = webRequestsPerClient * w.Concurrency
	e := &webEnv{m: m, w: w}
	var st setupStats
	st.warm(ctx, e, webWarmOps)
	return e, &st, nil
}

// clients is 1: one operation is a whole Apache run, and ab inside it
// already drives nproc connections.
func (e *webEnv) clients() int { return 1 }

func (e *webEnv) op(ctx context.Context, _ int, md mode) opResult {
	seq := e.m.Tracer().Seq()
	audit := e.m.AuditSeq()
	start := time.Now()
	res, err := e.m.RunApache(ctx, shill.ModeShill, e.w)
	r := opResult{lat: time.Since(start), audit: -1}
	if md == modeCounted {
		r.audit = int64(e.m.AuditSeq() - audit)
	}
	if md != modeTimed {
		r.spans = httpdSpans(e.m.Tracer().Since(seq))
	}
	r.fail = e.verify(res, err)
	return r
}

// httpdSpans keeps the trace of the server's run. ab runs concurrently
// inside the server run's window, so the server run's aggregated kernel
// spans already hold ab's operations; folding ab's trace too would
// count them twice.
func httpdSpans(spans []shill.Span) []shill.Span {
	var id uint64
	for _, sp := range spans {
		if sp.Kind == shill.SpanRun && sp.Name == "apache.ambient" {
			id = sp.Trace
		}
	}
	var out []shill.Span
	for _, sp := range spans {
		if id != 0 && sp.Trace == id {
			out = append(out, sp)
		}
	}
	return out
}

func (e *webEnv) verify(res *shill.Result, err error) string {
	if err != nil {
		return "web: run failed: " + err.Error()
	}
	for _, want := range []string{
		fmt.Sprintf("Complete requests: %d\n", e.w.Requests),
		"Failed requests: 0\n",
		fmt.Sprintf("Total transferred: %d bytes", e.w.Requests*e.w.FileMB<<20),
	} {
		if !strings.Contains(res.Console, want) {
			return fmt.Sprintf("web: ab report lacks %q", strings.TrimSpace(want))
		}
	}
	return ""
}

func (e *webEnv) meter() meter {
	e.m.FlushAuditProf()
	return meter{auditEmit: e.m.Prof().Total(prof.AuditEmit)}
}

func (e *webEnv) close() { e.m.Close() }
