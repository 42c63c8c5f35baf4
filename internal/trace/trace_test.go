package trace

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestSpanLifecycle(t *testing.T) {
	r := NewRecorder(64)
	tr := r.NewTrace()
	if tr == nil {
		t.Fatal("NewTrace returned nil on an enabled recorder")
	}
	root := tr.Start(0, KindRequest, "run")
	child := tr.Start(root.ID(), KindCompile, "compile")
	child.SetDetail("engine=compiled cache=miss")
	if d := child.End(); d < 0 {
		t.Fatalf("negative duration %v", d)
	}
	root.End()

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Completion order: the child ends first.
	if spans[0].Kind != KindCompile || spans[1].Kind != KindRequest {
		t.Fatalf("unexpected span order: %v, %v", spans[0].Kind, spans[1].Kind)
	}
	if spans[0].Parent != spans[1].ID {
		t.Fatalf("child parent %d != root id %d", spans[0].Parent, spans[1].ID)
	}
	if spans[0].Trace != tr.TraceID() || spans[1].Trace != tr.TraceID() {
		t.Fatal("spans missing trace ID")
	}
	if spans[0].Detail != "engine=compiled cache=miss" {
		t.Fatalf("detail = %q", spans[0].Detail)
	}

	got := r.TraceSpans(tr.TraceID())
	if len(got) != 2 {
		t.Fatalf("ring holds %d spans for the trace, want 2", len(got))
	}
}

func TestRingWraparound(t *testing.T) {
	const size = 16
	r := NewRecorder(size)
	tr := r.NewTrace()
	for i := 0; i < size*3; i++ {
		tr.Add(Span{Kind: KindEval, Start: time.Now(), Dur: time.Microsecond})
	}
	spans := r.Since(0)
	if len(spans) != size {
		t.Fatalf("ring holds %d spans, want %d", len(spans), size)
	}
	// Only the newest survive, in order.
	want := r.Seq() - size + 1
	for _, s := range spans {
		if s.Seq != want {
			t.Fatalf("seq %d, want %d", s.Seq, want)
		}
		want++
	}
}

func TestSinceIncremental(t *testing.T) {
	r := NewRecorder(64)
	tr := r.NewTrace()
	tr.Add(Span{Kind: KindQueue})
	mark := r.Seq()
	tr.Add(Span{Kind: KindEval})
	got := r.Since(mark)
	if len(got) != 1 || got[0].Kind != KindEval {
		t.Fatalf("Since(%d) = %+v, want the one eval span", mark, got)
	}
}

func TestPerTraceBufferBounded(t *testing.T) {
	r := NewRecorder(64)
	tr := r.NewTrace()
	for i := 0; i < maxTraceSpans+10; i++ {
		tr.Add(Span{Kind: KindEval})
	}
	if n := len(tr.Spans()); n != maxTraceSpans {
		t.Fatalf("per-trace buffer grew to %d, want cap %d", n, maxTraceSpans)
	}
	if tr.Dropped() != 10 {
		t.Fatalf("dropped = %d, want 10", tr.Dropped())
	}

	// A run's closing spans go past the cap, and the run span reports
	// what the cap cost.
	run := tr.Start(0, KindRun, "run")
	run.Finish([]Span{{Kind: KindOpVFS, Count: 3}})
	spans := tr.Spans()
	if len(spans) != maxTraceSpans+2 {
		t.Fatalf("closing spans not kept: %d spans, want %d", len(spans), maxTraceSpans+2)
	}
	agg, last := spans[len(spans)-2], spans[len(spans)-1]
	if agg.Kind != KindOpVFS || agg.Count != 3 || agg.Parent != run.ID() || agg.Trace != tr.TraceID() {
		t.Fatalf("aggregate span = %+v", agg)
	}
	if last.Kind != KindRun || last.Detail != "dropped=10" {
		t.Fatalf("run span = %+v, want detail dropped=10", last)
	}
}

func TestConcurrentEmission(t *testing.T) {
	r := NewRecorder(128)
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := r.NewTrace()
			for i := 0; i < per; i++ {
				a := tr.Start(0, KindEval, "eval")
				a.End()
			}
			if len(tr.Spans()) != maxTraceSpans {
				t.Errorf("per-trace spans = %d, want %d", len(tr.Spans()), maxTraceSpans)
			}
		}()
	}
	wg.Wait()
	if r.Seq() != workers*per {
		t.Fatalf("seq = %d, want %d", r.Seq(), workers*per)
	}
	if got := len(r.Since(0)); got != 128 {
		t.Fatalf("ring holds %d spans, want full 128", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder enabled")
	}
	r.SetEnabled(true)
	if r.Seq() != 0 || r.Since(0) != nil || r.TraceSpans(1) != nil {
		t.Fatal("nil recorder queries not empty")
	}
	tr := r.NewTrace()
	if tr != nil {
		t.Fatal("nil recorder minted a trace")
	}
	// The whole emission surface must no-op on nils.
	a := tr.Start(0, KindRun, "run")
	a.SetDetail("x")
	a.End()
	a.Finish([]Span{{Kind: KindOpVFS, Count: 1}})
	tr.Add(Span{})
	if tr.Spans() != nil || tr.TraceID() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil ref state not empty")
	}

	disabled := NewRecorder(8)
	disabled.SetEnabled(false)
	if disabled.NewTrace() != nil {
		t.Fatal("disabled recorder minted a trace")
	}
}

func TestKindJSON(t *testing.T) {
	b, err := json.Marshal(Span{Kind: KindCompile})
	if err != nil {
		t.Fatal(err)
	}
	if want := `"kind":"compile"`; !jsonContains(string(b), want) {
		t.Fatalf("span JSON %s missing %s", b, want)
	}
	var s Span
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	if s.Kind != KindCompile {
		t.Fatalf("round-trip kind = %v", s.Kind)
	}
}

func jsonContains(haystack, needle string) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if haystack[i:i+len(needle)] == needle {
			return true
		}
	}
	return false
}
