// Package prof is the machine-wide profile behind the Figure 10
// performance breakdown (total execution time, runtime startup, sandbox
// setup, sandboxed execution, and remaining time) and behind the
// aggregated kernel-op spans of a request trace (vfs, netstack, MAC
// policy). One Collector per machine holds every category; a run's
// profile is the Delta of two Snapshots.
package prof

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Category labels one accumulated row: the five Figure 10 rows first,
// then the kernel-op categories.
type Category int

// Profile categories.
const (
	Startup Category = iota // interpreter startup (Racket startup in the paper)
	SandboxSetup
	SandboxExec
	ContractCheck // attributed within "remaining time" in the paper
	AuditEmit     // time spent recording audit events (internal/audit)
	VFS           // filesystem namespace and data operations (sampled)
	Net           // netstack socket operations (sampled)
	Policy        // MAC policy checks (sampled)
	NumCategories
)

func (c Category) String() string {
	switch c {
	case Startup:
		return "runtime startup"
	case SandboxSetup:
		return "sandbox setup"
	case SandboxExec:
		return "sandboxed execution"
	case ContractCheck:
		return "contract checking"
	case AuditEmit:
		return "audit emission"
	case VFS:
		return "vfs operations"
	case Net:
		return "netstack operations"
	case Policy:
		return "policy checks"
	}
	return fmt.Sprintf("category(%d)", int(c))
}

// timingSample is the 1-in-N rate at which Begin times an operation.
// Sampled durations are scaled by the same factor, so totals are
// statistically unbiased; a single sampled operation that blocks (a
// parked socket read) is over-weighted by the scale factor, which
// averages out over many operations but makes any one small window
// noisy — the same caveat as every sampling profiler.
const timingSample = 64

// Collector accumulates an event count and nanoseconds per category:
// two atomics each, no locks. A nil *Collector is valid and records
// nothing, so instrumented code can stay unconditional.
type Collector struct {
	counts [NumCategories]atomic.Int64
	nanos  [NumCategories]atomic.Int64
}

// New returns an empty collector.
func New() *Collector { return &Collector{} }

// Add records one event and its duration: the coarse, always-timed
// path (interpreter startup, sandbox setup and execution, audit
// emission).
func (c *Collector) Add(cat Category, d time.Duration) {
	if c == nil {
		return
	}
	c.counts[cat].Add(1)
	c.nanos[cat].Add(int64(d))
}

// Begin counts one operation and, for the sampled 1-in-N operation,
// returns a non-zero start timestamp to pass to End: the path for
// operations far too frequent to time individually (vfs, netstack,
// policy checks).
func (c *Collector) Begin(cat Category) int64 {
	if c == nil {
		return 0
	}
	if c.counts[cat].Add(1)%timingSample != 0 {
		return 0
	}
	return time.Now().UnixNano()
}

// End records a sampled operation's duration, scaled back up to
// estimate the category total.
func (c *Collector) End(cat Category, startNanos int64) {
	if c == nil || startNanos == 0 {
		return
	}
	if d := time.Now().UnixNano() - startNanos; d > 0 {
		c.nanos[cat].Add(d * timingSample)
	}
}

// Total returns the accumulated duration for a category.
func (c *Collector) Total(cat Category) time.Duration {
	if c == nil {
		return 0
	}
	return time.Duration(c.nanos[cat].Load())
}

// Count returns how many events were recorded in a category. The
// SandboxSetup count is the number of sandboxes created — the statistic
// the paper reports per benchmark (Grading 5371, Find 15292, …).
func (c *Collector) Count(cat Category) int64 {
	if c == nil {
		return 0
	}
	return c.counts[cat].Load()
}

// Sample is one category's accumulated duration and event count — the
// unit of the per-run profiles repro/shill attaches to each Result.
type Sample struct {
	Category Category      `json:"category"`
	Total    time.Duration `json:"totalNs"`
	Count    int64         `json:"count"`
}

// Snapshot is a point-in-time copy of every category, indexed by
// Category.
type Snapshot [NumCategories]Sample

// Snapshot copies the counters. Nil-safe (zero totals).
func (c *Collector) Snapshot() Snapshot {
	var s Snapshot
	for i := range s {
		s[i] = Sample{Category: Category(i), Total: c.Total(Category(i)), Count: c.Count(Category(i))}
	}
	return s
}

// Delta returns s minus before, clamped at zero: the profile of just
// the work between the two snapshots. As with any windowed attribution
// over machine-wide counters, concurrent sessions on one machine bleed
// into each other's windows; a Reset inside the window clamps to zero
// rather than going negative.
func (s Snapshot) Delta(before Snapshot) Snapshot {
	for i := range s {
		s[i].Total = max(s[i].Total-before[i].Total, 0)
		s[i].Count = max(s[i].Count-before[i].Count, 0)
	}
	return s
}

// Reset zeroes the collector.
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	for i := range c.counts {
		c.counts[i].Store(0)
		c.nanos[i].Store(0)
	}
}

// Breakdown is a Figure 10-style report. AuditEmit extends the paper's
// rows with the audit subsystem's own overhead, so "remaining" stays
// honest about where time outside sandboxes actually went.
type Breakdown struct {
	Total        time.Duration
	Startup      time.Duration
	SandboxSetup time.Duration
	SandboxExec  time.Duration
	AuditEmit    time.Duration // audit-event recording overhead
	Remaining    time.Duration // total - startup - setup - exec - audit
	Sandboxes    int64
}

// Report computes the breakdown for a run that took total wall time.
func (c *Collector) Report(total time.Duration) Breakdown {
	b := Breakdown{
		Total:        total,
		Startup:      c.Total(Startup),
		SandboxSetup: c.Total(SandboxSetup),
		SandboxExec:  c.Total(SandboxExec),
		AuditEmit:    c.Total(AuditEmit),
		Sandboxes:    c.Count(SandboxSetup),
	}
	b.Remaining = total - b.Startup - b.SandboxSetup - b.SandboxExec - b.AuditEmit
	if b.Remaining < 0 {
		b.Remaining = 0
	}
	return b
}

// String renders the breakdown like Figure 10.
func (b Breakdown) String() string {
	return fmt.Sprintf("total %v | startup %v | sandbox setup %v | sandboxed execution %v | audit %v | remaining %v | sandboxes %d",
		b.Total.Round(time.Microsecond), b.Startup.Round(time.Microsecond),
		b.SandboxSetup.Round(time.Microsecond), b.SandboxExec.Round(time.Microsecond),
		b.AuditEmit.Round(time.Microsecond),
		b.Remaining.Round(time.Microsecond), b.Sandboxes)
}
