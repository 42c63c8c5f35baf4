package prof

import (
	"strings"
	"testing"
	"time"
)

func TestCollectorBasics(t *testing.T) {
	c := New()
	c.Add(SandboxSetup, 10*time.Millisecond)
	c.Add(SandboxSetup, 5*time.Millisecond)
	c.Add(SandboxExec, 20*time.Millisecond)
	if c.Total(SandboxSetup) != 15*time.Millisecond {
		t.Fatalf("Total = %v", c.Total(SandboxSetup))
	}
	if c.Count(SandboxSetup) != 2 || c.Count(SandboxExec) != 1 {
		t.Fatal("counts wrong")
	}
	c.Reset()
	if c.Total(SandboxSetup) != 0 || c.Count(SandboxSetup) != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	c.Add(Startup, time.Second) // must not panic
	if c.Total(Startup) != 0 || c.Count(Startup) != 0 {
		t.Fatal("nil collector returned data")
	}
	c.Reset()
	c.End(VFS, c.Begin(VFS))
	for _, s := range c.Snapshot() {
		if s.Count != 0 || s.Total != 0 {
			t.Fatalf("nil collector snapshot row %+v", s)
		}
	}
}

func TestReportBreakdown(t *testing.T) {
	c := New()
	c.Add(Startup, 100*time.Millisecond)
	c.Add(SandboxSetup, 200*time.Millisecond)
	c.Add(SandboxExec, 300*time.Millisecond)
	b := c.Report(time.Second)
	if b.Remaining != 400*time.Millisecond {
		t.Fatalf("remaining = %v", b.Remaining)
	}
	if b.Sandboxes != 1 {
		t.Fatalf("sandboxes = %d", b.Sandboxes)
	}
	// Remaining clamps at zero when the categories overlap the total.
	b = c.Report(100 * time.Millisecond)
	if b.Remaining != 0 {
		t.Fatalf("clamped remaining = %v", b.Remaining)
	}
	if b.String() == "" {
		t.Fatal("empty breakdown string")
	}
}

func TestCategoryNames(t *testing.T) {
	for c := Category(0); c < NumCategories; c++ {
		if strings.HasPrefix(c.String(), "category(") {
			t.Fatalf("category %d has no name", c)
		}
	}
}

// TestAuditEmitBreakdown verifies the AuditEmit category is attributed
// in the Figure-10 breakdown and subtracted from the remaining bucket,
// so audit overhead never masquerades as script-evaluation time.
func TestAuditEmitBreakdown(t *testing.T) {
	c := New()
	c.Add(Startup, 100*time.Millisecond)
	c.Add(SandboxExec, 300*time.Millisecond)
	c.Add(AuditEmit, 50*time.Millisecond)
	b := c.Report(time.Second)
	if b.AuditEmit != 50*time.Millisecond {
		t.Fatalf("AuditEmit = %v, want 50ms", b.AuditEmit)
	}
	if b.Remaining != 550*time.Millisecond {
		t.Fatalf("remaining = %v, want 550ms (audit time must be excluded)", b.Remaining)
	}
	if got := c.Total(AuditEmit); got != 50*time.Millisecond {
		t.Fatalf("Total(AuditEmit) = %v", got)
	}
}

func TestSampledBeginEnd(t *testing.T) {
	c := New()
	before := c.Snapshot()
	for i := 0; i < 2*timingSample; i++ {
		c.End(VFS, c.Begin(VFS))
	}
	c.End(Net, c.Begin(Net))
	delta := c.Snapshot().Delta(before)
	if delta[VFS].Count != 2*timingSample {
		t.Fatalf("vfs count = %d, want %d", delta[VFS].Count, 2*timingSample)
	}
	if delta[Net].Count != 1 || delta[Policy].Count != 0 {
		t.Fatalf("net/policy counts = %d/%d", delta[Net].Count, delta[Policy].Count)
	}
	if delta[VFS].Category != VFS {
		t.Fatalf("delta row %d carries category %v", VFS, delta[VFS].Category)
	}
}

// TestDeltaClampsAtZero: a Reset inside a run's window must leave the
// run's profile empty, not negative.
func TestDeltaClampsAtZero(t *testing.T) {
	c := New()
	c.Add(SandboxSetup, time.Millisecond)
	c.End(Policy, c.Begin(Policy))
	before := c.Snapshot()
	c.Reset()
	c.Add(Startup, time.Microsecond)
	delta := c.Snapshot().Delta(before)
	for _, s := range delta {
		if s.Count < 0 || s.Total < 0 {
			t.Fatalf("negative delta row %+v", s)
		}
	}
	if delta[Startup].Count != 1 || delta[Startup].Total != time.Microsecond {
		t.Fatalf("startup row = %+v", delta[Startup])
	}
}

// TestHotPathAllocs: every vfs, policy and sandbox operation goes
// through these calls, so none of them may allocate.
func TestHotPathAllocs(t *testing.T) {
	c := New()
	before := c.Snapshot()
	var sink Snapshot
	for name, f := range map[string]func(){
		"Add":       func() { c.Add(SandboxSetup, time.Microsecond) },
		"Begin/End": func() { c.End(VFS, c.Begin(VFS)) },
		"Snapshot":  func() { sink = c.Snapshot() },
		"Delta":     func() { sink = sink.Delta(before) },
	} {
		if n := testing.AllocsPerRun(1000, f); n != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", name, n)
		}
	}
}
