package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/prof"
	"repro/shill"
)

// gradeSessions is how many sessions grade concurrently, each its own
// course.
const gradeSessions = 2

// gradeWarmOps is the warm-up's length in graded courses.
const gradeWarmOps = 4

// gradeEnv grades on a machine restored from an image of the staged
// courses.
type gradeEnv struct {
	m      *shill.Machine
	sess   [gradeSessions]*shill.Session
	roots  [gradeSessions]string
	script [gradeSessions]string
	want   map[string]string // student -> expected grade log
}

func setupGrade(ctx context.Context, _ int64, untraced bool) (env, *setupStats, error) {
	var opts []shill.Option
	if untraced {
		opts = append(opts, shill.WithTraceDisabled())
	}
	cold, err := shill.NewMachine(append(opts, shill.WithWorkload(shill.WorkloadGrading))...)
	if err != nil {
		return nil, nil, err
	}
	cold.PrepareGradingSessions(gradeSessions, shill.DefaultGrading)
	var st setupStats
	start := time.Now()
	img, err := cold.Snapshot()
	st.snapshot = time.Since(start)
	cold.Close()
	if err != nil {
		return nil, nil, fmt.Errorf("snapshot: %w", err)
	}
	start = time.Now()
	m, err := shill.RestoreMachine(img, opts...)
	st.restore = time.Since(start)
	if err != nil {
		return nil, nil, fmt.Errorf("restore: %w", err)
	}
	e := &gradeEnv{m: m, want: expectedGrades(shill.DefaultGrading)}
	for c := range e.sess {
		e.sess[c] = m.NewSession()
		e.roots[c] = shill.GradingRoot(c)
		e.script[c] = shill.GradeAmbientShillAt(e.roots[c], e.sess[c].ConsolePath())
	}
	st.warm(ctx, e, gradeWarmOps)
	return e, &st, nil
}

// expectedGrades derives every grade log from the course definition
// (internal/core BuildGradingCourseAt) and the paper's ModeShill
// outcome: the cheater's read of another submission and the vandal's
// write to the test suite are denied inside their sandboxes, so both
// fail every test.
func expectedGrades(w shill.GradingWorkload) map[string]string {
	all := func(verdict string) string {
		var b strings.Builder
		b.WriteString("compiled\n")
		for t := 0; t < w.Tests; t++ {
			fmt.Fprintf(&b, "%s t%03d\n", verdict, t)
		}
		return b.String()
	}
	want := map[string]string{}
	for i := 0; i < w.Students; i++ {
		g := all("pass")
		switch i % 7 {
		case 3: // prints the wrong answer
			g = all("fail")
		case 5: // does not compile
			g = "compile-failed\n"
		}
		want[fmt.Sprintf("student%03d", i)] = g
	}
	if w.Malicious {
		want["zz_cheater"] = all("fail")
		want["zz_vandal"] = all("fail")
	}
	return want
}

func (e *gradeEnv) clients() int { return gradeSessions }

// op resets session c's grade outputs and grades its course. The reset
// leaves copy-on-write whiteouts over the image's directories, so the
// grading run's writes sit beside base-layer reads.
func (e *gradeEnv) op(ctx context.Context, c int, md mode) opResult {
	root := e.roots[c]
	for _, d := range []string{root + "/work", root + "/grades"} {
		e.m.RemoveTree(d)
		if err := e.m.MkdirAll(d, 0o755, shill.UserUID); err != nil {
			return opResult{fail: "grade: reset " + d + ": " + err.Error(), audit: -1}
		}
	}
	seq := e.m.AuditSeq()
	start := time.Now()
	res, err := e.sess[c].Run(ctx, shill.Script{Name: "grade.ambient", Source: e.script[c]})
	r := opResult{lat: time.Since(start), audit: -1}
	if md == modeCounted {
		r.audit = int64(e.m.AuditSeq() - seq)
	}
	if md != modeTimed && res != nil {
		r.spans = res.Trace
	}
	r.fail = e.verify(root, res, err)
	return r
}

func (e *gradeEnv) verify(root string, res *shill.Result, err error) string {
	if err != nil {
		return "grade: run failed: " + err.Error()
	}
	if !strings.Contains(res.Console, "grading-complete") {
		return "grade: console lacks grading-complete"
	}
	for student, want := range e.want {
		if got := e.m.GradeAt(root, student); got != want {
			return fmt.Sprintf("grade: %s graded %q, want %q", student, got, want)
		}
	}
	if got, err := e.m.ReadFile(root + "/tests/t000"); err != nil || got != "answer000" {
		return "grade: the test suite was modified"
	}
	return ""
}

func (e *gradeEnv) meter() meter {
	e.m.FlushAuditProf()
	return meter{auditEmit: e.m.Prof().Total(prof.AuditEmit)}
}

func (e *gradeEnv) close() {
	for _, s := range e.sess {
		s.Close()
	}
	e.m.Close()
}
