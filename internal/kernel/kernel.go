// Package kernel simulates the FreeBSD kernel surface the paper's SHILL
// module extends: processes with file-descriptor tables, the *at family
// of system calls plus the module's additions (flinkat, funlinkat,
// frenameat, fmkdirat returning an fd, and path), sandbox sessions
// (shill_init / shill_enter), and the SHILL MAC policy module with its
// per-object privilege maps (§3.1.3, §3.2).
//
// The package deliberately separates mechanism the way the paper does:
// the MAC framework (internal/mac) is policy-agnostic; the SHILL policy
// (policy.go) hangs privilege maps off object labels; and system calls
// here invoke DAC, then the framework, then the VFS, in that order — an
// operation succeeds only if it "passes the checks performed by the
// operating system based on the user's ambient authority and is also
// permitted by the capabilities possessed by the sandbox" (§2.3).
package kernel

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/errno"
	"repro/internal/mac"
	"repro/internal/netstack"
	"repro/internal/prof"
	"repro/internal/vfs"
)

// BinMain is the entry point of a simulated native executable: it runs
// with a process whose file descriptors 0/1/2 are wired up, receives the
// argument vector, and returns an exit status. Registered binaries stand
// in for the real executables of the paper's case studies; they perform
// all their work through the process's system calls, so MAC checks apply
// to them exactly as to statically compiled programs in a SHILL sandbox.
type BinMain func(p *Proc, argv []string) int

// Ulimits are the per-process resource limits exec may attenuate
// (Figure 7: processes are controlled by ulimit in the language).
type Ulimits struct {
	MaxOpenFiles int   // RLIMIT_NOFILE
	MaxFileSize  int64 // RLIMIT_FSIZE
	MaxProcs     int   // RLIMIT_NPROC (children per process)
}

// DefaultUlimits returns generous defaults.
func DefaultUlimits() Ulimits {
	return Ulimits{MaxOpenFiles: 1024, MaxFileSize: 1 << 34, MaxProcs: 4096}
}

// Kernel owns every simulated kernel subsystem. Locking is
// per-subsystem so independent sandbox sessions never serialise on one
// global lock: the process table, the binary registry, sysctl, kenv,
// kmod, and IPC each carry their own mutex; PID and session-ID
// allocation are atomics; fd tables, sessions, privilege maps, vnodes,
// and sockets all have object-local locks of their own.
type Kernel struct {
	FS  *vfs.FS
	Net *netstack.Stack
	MAC *mac.Framework

	// aud is the always-on capability provenance and audit log
	// (internal/audit): every security-relevant decision lands here,
	// sharded per session. Disable it with Audit().SetEnabled(false)
	// for overhead comparisons.
	aud *audit.Log

	// Prof is the machine's one profile collector: vfs, netstack and
	// policy checks count here, and so do sandboxes and interpreter
	// startup. A run's delta is its Figure 10 profile and the aggregated
	// spans of its trace.
	Prof *prof.Collector

	Policy *ShillPolicy // nil until InstallShillModule

	procsMu sync.RWMutex
	procs   map[int]*Proc
	nextPID atomic.Int64

	binMu    sync.RWMutex
	binaries map[string]BinMain

	// spawnLatency, when non-zero, is slept in the child before its
	// binary runs: a stand-in for the fork/exec and image-load cost of
	// the paper's real FreeBSD testbed, which the in-memory simulator
	// otherwise collapses to ~0. Parallel-session benchmarks enable it
	// so that throughput scaling reflects overlap of real blocking.
	spawnLatency atomic.Int64

	sysctlMu sync.RWMutex
	sysctl   map[string]string

	kenvMu sync.RWMutex
	kenv   map[string]string

	kmodMu sync.Mutex
	kmods  []string

	ipcMu     sync.Mutex
	posixSems map[string]int
	sysvShm   map[int][]byte

	nextSessionID atomic.Uint64

	// cleaner drains asynchronous session teardown, mirroring "the
	// kernel's asynchronous cleanup of expired SHILL sandbox sessions"
	// that the paper blames for Find's overhead (§4.2). The work channel
	// is never closed (processes may exit concurrently with Shutdown);
	// the done channel stops the worker.
	cleanerCh    chan *Session
	cleanerDone  chan struct{}
	cleanerWG    sync.WaitGroup
	cleanerOnce  sync.Once
	shutdownOnce sync.Once
}

// New creates a kernel with an empty filesystem, a loopback network, an
// empty MAC framework (the paper's "Baseline" configuration), and the
// standard kmods loaded.
func New() *Kernel {
	k := &Kernel{
		FS:          vfs.New(),
		Net:         netstack.New(),
		MAC:         mac.NewFramework(),
		aud:         audit.NewLog(0, 0),
		procs:       make(map[int]*Proc),
		binaries:    make(map[string]BinMain),
		sysctl:      map[string]string{"kern.ostype": "ShillOS", "kern.osrelease": "9.2-SIM", "hw.ncpu": "6"},
		kenv:        map[string]string{"kernelname": "/boot/kernel/kernel"},
		kmods:       []string{"kernel"},
		posixSems:   make(map[string]int),
		sysvShm:     make(map[int][]byte),
		cleanerCh:   make(chan *Session, 1024),
		cleanerDone: make(chan struct{}),
	}
	k.Prof = prof.New()
	k.FS.SetProf(k.Prof)
	k.Net.SetProf(k.Prof)
	return k
}

// SetFS replaces the kernel's filesystem with one booted from an image
// layer (machine restore). It must be called immediately after New,
// before processes, policies, or binaries reference the old filesystem.
func (k *Kernel) SetFS(fs *vfs.FS) {
	fs.SetProf(k.Prof)
	k.FS = fs
}

// InstallShillModule loads the SHILL policy module into the MAC
// framework (the "SHILL installed" configuration). It is idempotent.
func (k *Kernel) InstallShillModule() *ShillPolicy {
	k.kmodMu.Lock()
	defer k.kmodMu.Unlock()
	if k.Policy != nil {
		return k.Policy
	}
	k.Policy = newShillPolicy(k)
	if err := k.MAC.Register(k.Policy); err != nil {
		panic("kernel: " + err.Error())
	}
	k.kmods = append(k.kmods, "shill.ko")
	k.startCleaner()
	return k.Policy
}

func (k *Kernel) startCleaner() {
	k.cleanerOnce.Do(func() {
		ch, done := k.cleanerCh, k.cleanerDone
		k.cleanerWG.Add(1)
		go func() {
			defer k.cleanerWG.Done()
			for {
				select {
				case s := <-ch:
					s.teardown()
				case <-done:
					// Drain whatever is already queued, then exit.
					for {
						select {
						case s := <-ch:
							s.teardown()
						default:
							return
						}
					}
				}
			}
		}()
	})
}

// Shutdown stops background workers and tears down the network stack,
// waking any accepters still blocked on listeners. Safe to call
// multiple times and concurrently with exiting processes.
func (k *Kernel) Shutdown() {
	k.shutdownOnce.Do(func() {
		k.Net.Shutdown()
		close(k.cleanerDone)
		k.cleanerWG.Wait()
	})
}

// Audit returns the kernel's audit log.
func (k *Kernel) Audit() *audit.Log { return k.aud }

// SetSpawnLatency configures the simulated per-exec latency (0 disables
// it, the default). See the field comment on Kernel.spawnLatency.
func (k *Kernel) SetSpawnLatency(d time.Duration) { k.spawnLatency.Store(int64(d)) }

// SpawnLatency returns the configured simulated exec latency.
func (k *Kernel) SpawnLatency() time.Duration { return time.Duration(k.spawnLatency.Load()) }

func (k *Kernel) enqueueCleanup(s *Session) {
	if k.Policy == nil {
		s.teardown()
		return
	}
	select {
	case k.cleanerCh <- s:
	default:
		s.teardown() // cleaner saturated or stopped; tear down inline
	}
}

// RegisterBinary installs a simulated executable under the given name.
// Image builders then place files whose contents are "#!bin:<name>\n" to
// make the binary invocable.
func (k *Kernel) RegisterBinary(name string, main BinMain) {
	k.binMu.Lock()
	defer k.binMu.Unlock()
	k.binaries[name] = main
}

// binaryFor resolves the BinMain encoded in an executable vnode.
func (k *Kernel) binaryFor(vn *vfs.Vnode) (BinMain, string, error) {
	data := vn.Bytes()
	const magic = "#!bin:"
	if !strings.HasPrefix(string(data), magic) {
		return nil, "", errno.ENOSYS
	}
	rest := string(data[len(magic):])
	if i := strings.IndexByte(rest, '\n'); i >= 0 {
		rest = rest[:i]
	}
	name := strings.TrimSpace(rest)
	k.binMu.RLock()
	main, ok := k.binaries[name]
	k.binMu.RUnlock()
	if !ok {
		return nil, name, errno.ENOSYS
	}
	return main, name, nil
}

// --- processes ---

// ProcState tracks the lifecycle of a process.
type ProcState int

// Process states.
const (
	ProcRunning ProcState = iota
	ProcZombie
	ProcReaped
)

// Proc is a simulated process. System calls are methods on Proc so each
// call carries its subject credential implicitly, as the trap frame does
// in a real kernel.
type Proc struct {
	k      *Kernel
	pid    int
	parent *Proc

	mu       sync.Mutex
	cred     *mac.Cred
	cwd      *vfs.Vnode
	fds      map[int]*FileDesc
	nextFD   int
	children map[int]*Proc
	state    ProcState
	exitCode int
	done     chan struct{}
	limits   Ulimits
	session  *Session

	// intr is the process's interrupt gate: Interrupt closes the current
	// channel, waking every blocking wait (Wait, socket accept/recv/send)
	// with EINTR — the mechanism context cancellation rides to stop a
	// runaway script without killing its runtime process. ClearInterrupt
	// re-arms the gate so the process is reusable for the next run.
	intrMu sync.Mutex
	intrCh chan struct{}
	intrOn bool

	// traceID names the request trace (internal/trace) the process is
	// currently executing for; deny sites stamp it onto audit events so
	// why-denied can point back into the span tree. Zero means untraced.
	// Children inherit it at Fork; SetTraceID re-stamps a long-lived
	// runtime process between runs.
	traceID atomic.Uint64
}

// SetTraceID tags the process — and its session, if it has entered one —
// with the request trace it is executing for. Zero clears the tag.
func (p *Proc) SetTraceID(id uint64) {
	p.traceID.Store(id)
	if s := p.Session(); s != nil {
		s.trace.Store(id)
	}
}

// TraceID returns the request trace the process is tagged with, 0 if
// untraced.
func (p *Proc) TraceID() uint64 { return p.traceID.Load() }

// IntrChan returns the channel closed when the process is interrupted.
// Blocking system calls select on it; it is replaced (re-armed) by
// ClearInterrupt.
func (p *Proc) IntrChan() <-chan struct{} {
	p.intrMu.Lock()
	defer p.intrMu.Unlock()
	if p.intrCh == nil {
		p.intrCh = make(chan struct{})
	}
	return p.intrCh
}

// Interrupt marks the process interrupted: every in-flight and future
// blocking wait returns EINTR until ClearInterrupt. Idempotent.
func (p *Proc) Interrupt() {
	p.intrMu.Lock()
	defer p.intrMu.Unlock()
	if p.intrOn {
		return
	}
	p.intrOn = true
	if p.intrCh == nil {
		p.intrCh = make(chan struct{})
	}
	close(p.intrCh)
}

// ClearInterrupt re-arms the interrupt gate after a cancelled run, so
// the process (and the session built on it) stays reusable.
func (p *Proc) ClearInterrupt() {
	p.intrMu.Lock()
	defer p.intrMu.Unlock()
	if p.intrOn {
		p.intrOn = false
		p.intrCh = make(chan struct{})
	}
}

// Interrupted reports whether the interrupt gate is currently raised.
func (p *Proc) Interrupted() bool {
	p.intrMu.Lock()
	defer p.intrMu.Unlock()
	return p.intrOn
}

// NewProc creates a top-level process with the given identity, rooted at
// the filesystem root. It models a login shell: no sandbox session, full
// ambient authority subject to DAC.
func (k *Kernel) NewProc(uid, gid int) *Proc {
	p := &Proc{
		k:        k,
		pid:      int(k.nextPID.Add(1)),
		cred:     mac.NewCred(uid, gid),
		cwd:      k.FS.Root(),
		fds:      make(map[int]*FileDesc),
		nextFD:   3, // 0-2 reserved for stdio
		children: make(map[int]*Proc),
		done:     make(chan struct{}),
		limits:   DefaultUlimits(),
	}
	k.procsMu.Lock()
	k.procs[p.pid] = p
	k.procsMu.Unlock()
	return p
}

// PID returns the process id.
func (p *Proc) PID() int { return p.pid }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Cred returns the subject credential.
func (p *Proc) Cred() *mac.Cred {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cred
}

// Session returns the SHILL session the process runs in, or nil.
func (p *Proc) Session() *Session {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.session
}

// AuditShard returns the audit shard events from this process should
// land on: the session's shard when the process runs in a session, the
// global shard otherwise. The capability runtime (internal/cap) uses it
// to attribute lineage events.
func (p *Proc) AuditShard() *audit.Shard {
	if s := p.Session(); s != nil {
		return s.shard
	}
	return p.k.aud.Global()
}

// Limits returns the process resource limits.
func (p *Proc) Limits() Ulimits {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.limits
}

// SetLimits replaces the resource limits (exec's ulimit parameters).
func (p *Proc) SetLimits(l Ulimits) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.limits = l
}

// SpawnAttr configures Spawn.
type SpawnAttr struct {
	// Stdin, Stdout, Stderr become fds 0, 1, 2 of the child. Nil slots
	// inherit the parent's descriptor (duplicated), if any.
	Stdin, Stdout, Stderr *FileDesc
	// Limits, when non-nil, replaces the child's inherited ulimits.
	Limits *Ulimits
	// Dir, when non-nil, sets the child's working directory.
	Dir *vfs.Vnode
}

// Spawn forks a child and executes the binary in vn with the given
// argument vector, returning the running child. The child inherits the
// parent's credential (and therefore its SHILL session, §3.2.1:
// "Processes spawned by a process in a session are by default placed in
// the same session"). MAC exec and DAC execute checks apply.
func (p *Proc) Spawn(vn *vfs.Vnode, argv []string, attr SpawnAttr) (*Proc, error) {
	child, err := p.Fork()
	if err != nil {
		return nil, err
	}
	if attr.Limits != nil {
		child.SetLimits(*attr.Limits)
	}
	if attr.Dir != nil {
		child.mu.Lock()
		child.cwd = attr.Dir
		child.mu.Unlock()
	}
	child.installStdio(0, attr.Stdin, p)
	child.installStdio(1, attr.Stdout, p)
	child.installStdio(2, attr.Stderr, p)
	if err := child.Exec(vn, argv); err != nil {
		child.Abandon()
		if _, werr := p.Wait(child.pid); werr != nil {
			return nil, err
		}
		return nil, err
	}
	return child, nil
}

func (p *Proc) installStdio(fd int, desc *FileDesc, parent *Proc) {
	if desc == nil {
		parent.mu.Lock()
		inherited := parent.fds[fd]
		parent.mu.Unlock()
		if inherited == nil {
			return
		}
		desc = inherited
	}
	dup := desc.dup()
	p.mu.Lock()
	p.fds[fd] = dup
	p.mu.Unlock()
}

// SpawnWait spawns the binary and blocks until it exits, returning its
// exit status.
func (p *Proc) SpawnWait(vn *vfs.Vnode, argv []string, attr SpawnAttr) (int, error) {
	child, err := p.Spawn(vn, argv, attr)
	if err != nil {
		return -1, err
	}
	return p.Wait(child.pid)
}

// exit terminates the process: closes descriptors, zombifies, and kicks
// session cleanup when the last process of a session exits.
func (p *Proc) exit(code int) {
	p.mu.Lock()
	if p.state != ProcRunning {
		p.mu.Unlock()
		return
	}
	p.state = ProcZombie
	p.exitCode = code
	fds := p.fds
	p.fds = make(map[int]*FileDesc)
	sess := p.session
	p.mu.Unlock()

	for _, fd := range fds {
		fd.close()
	}
	close(p.done)

	if sess != nil {
		if p.k.aud.Enabled() {
			p.k.aud.Emit(sess.shard, audit.Event{
				Kind: audit.KindExit, Op: "proc-exit",
				Detail: fmt.Sprintf("pid %d, status %d", p.pid, code),
			})
		}
		if sess.procExited() {
			p.k.enqueueCleanup(sess)
		}
	}
}

// Exit terminates the calling process with the given status. Binaries
// normally just return from BinMain; Exit supports early termination.
func (p *Proc) Exit(code int) { p.exit(code) }

// Wait blocks until the child with the given pid exits and returns its
// exit status, enforcing the MAC process-wait policy (§3.2.2: a sandboxed
// process cannot wait for a process outside its session). If the waiting
// process is interrupted while the child is still running, Wait returns
// EINTR without reaping; a child that has already exited is always
// reaped, even under interruption, so cancellation cleanup can still
// collect corpses.
func (p *Proc) Wait(pid int) (int, error) {
	p.mu.Lock()
	child, ok := p.children[pid]
	cred := p.cred
	p.mu.Unlock()
	if !ok {
		return -1, errno.ECHILD
	}
	if err := p.k.MAC.ProcCheck(cred, child.Cred(), mac.OpProcWait); err != nil {
		return -1, err
	}
	select {
	case <-child.done:
	default:
		select {
		case <-child.done:
		case <-p.IntrChan():
			return -1, errno.EINTR
		}
	}
	return p.reap(child), nil
}

// reap collects an exited child's status and removes it from the process
// tables.
func (p *Proc) reap(child *Proc) int {
	child.mu.Lock()
	code := child.exitCode
	child.state = ProcReaped
	child.mu.Unlock()

	p.mu.Lock()
	delete(p.children, child.pid)
	p.mu.Unlock()
	p.k.procsMu.Lock()
	delete(p.k.procs, child.pid)
	p.k.procsMu.Unlock()
	return code
}

// KillWait forcibly terminates a child (and its whole descendant tree)
// and reaps it, bypassing the MAC signal check — the kernel-internal
// teardown path a cancelled run uses to not leak processes. It returns
// the child's exit status (137 if the kill was what stopped it).
func (p *Proc) KillWait(pid int) (int, error) {
	p.mu.Lock()
	child, ok := p.children[pid]
	p.mu.Unlock()
	if !ok {
		return -1, errno.ECHILD
	}
	child.KillDescendants()
	child.exit(137)
	<-child.done
	return p.reap(child), nil
}

// KillDescendants terminates and reaps every live descendant of the
// process, leaving the process itself running. Combined with Interrupt
// it implements cancellation: the runtime process survives (the session
// stays reusable) while everything it spawned is torn down.
func (p *Proc) KillDescendants() {
	p.mu.Lock()
	pids := make([]int, 0, len(p.children))
	for pid := range p.children {
		pids = append(pids, pid)
	}
	p.mu.Unlock()
	for _, pid := range pids {
		p.KillWait(pid)
	}
}

// Kill delivers a (simulated) fatal signal to the target process after
// the MAC signal check. Only termination is modelled.
func (p *Proc) Kill(pid int) error {
	p.k.procsMu.RLock()
	target, ok := p.k.procs[pid]
	p.k.procsMu.RUnlock()
	if !ok {
		return errno.ESRCH
	}
	if err := p.k.MAC.ProcCheck(p.Cred(), target.Cred(), mac.OpProcSignal); err != nil {
		return err
	}
	target.exit(137)
	return nil
}

// Exited reports whether the process has terminated.
func (p *Proc) Exited() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state != ProcRunning
}

// Done returns a channel closed when the process exits.
func (p *Proc) Done() <-chan struct{} { return p.done }

// CWD returns the current working directory vnode.
func (p *Proc) CWD() *vfs.Vnode {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cwd
}

// --- sysctl / kenv / kmod / IPC (Figure 7 rows) ---

// SysctlGet reads a sysctl value (read-only inside sandboxes).
func (p *Proc) SysctlGet(name string) (string, error) {
	if err := p.k.MAC.SystemCheck(p.Cred(), mac.OpSysctlRead, name); err != nil {
		return "", err
	}
	p.k.sysctlMu.RLock()
	defer p.k.sysctlMu.RUnlock()
	v, ok := p.k.sysctl[name]
	if !ok {
		return "", errno.ENOENT
	}
	return v, nil
}

// SysctlSet writes a sysctl value (denied inside sandboxes).
func (p *Proc) SysctlSet(name, value string) error {
	if err := p.k.MAC.SystemCheck(p.Cred(), mac.OpSysctlWrite, name); err != nil {
		return err
	}
	cred := p.Cred()
	if cred.UID != 0 {
		return errno.EPERM
	}
	p.k.sysctlMu.Lock()
	defer p.k.sysctlMu.Unlock()
	p.k.sysctl[name] = value
	return nil
}

// KenvGet reads a kernel-environment variable (denied inside sandboxes).
func (p *Proc) KenvGet(name string) (string, error) {
	if err := p.k.MAC.SystemCheck(p.Cred(), mac.OpKenvRead, name); err != nil {
		return "", err
	}
	p.k.kenvMu.RLock()
	defer p.k.kenvMu.RUnlock()
	v, ok := p.k.kenv[name]
	if !ok {
		return "", errno.ENOENT
	}
	return v, nil
}

// KenvSet writes a kernel-environment variable.
func (p *Proc) KenvSet(name, value string) error {
	if err := p.k.MAC.SystemCheck(p.Cred(), mac.OpKenvWrite, name); err != nil {
		return err
	}
	if p.Cred().UID != 0 {
		return errno.EPERM
	}
	p.k.kenvMu.Lock()
	defer p.k.kenvMu.Unlock()
	p.k.kenv[name] = value
	return nil
}

// KldLoad loads a kernel module. Denied in sandboxes: "no sandboxed
// executable has a capability to unload kernel modules, including the
// module that enforces the MAC policy" (§2.3).
func (p *Proc) KldLoad(name string) error {
	if err := p.k.MAC.SystemCheck(p.Cred(), mac.OpKmodLoad, name); err != nil {
		return err
	}
	if p.Cred().UID != 0 {
		return errno.EPERM
	}
	p.k.kmodMu.Lock()
	defer p.k.kmodMu.Unlock()
	p.k.kmods = append(p.k.kmods, name)
	return nil
}

// KldUnload unloads a kernel module.
func (p *Proc) KldUnload(name string) error {
	if err := p.k.MAC.SystemCheck(p.Cred(), mac.OpKmodUnload, name); err != nil {
		return err
	}
	if p.Cred().UID != 0 {
		return errno.EPERM
	}
	p.k.kmodMu.Lock()
	defer p.k.kmodMu.Unlock()
	for i, m := range p.k.kmods {
		if m == name {
			p.k.kmods = append(p.k.kmods[:i], p.k.kmods[i+1:]...)
			return nil
		}
	}
	return errno.ENOENT
}

// KldList returns the loaded module names.
func (p *Proc) KldList() []string {
	p.k.kmodMu.Lock()
	defer p.k.kmodMu.Unlock()
	out := make([]string, len(p.k.kmods))
	copy(out, p.k.kmods)
	return out
}

// SemOpen opens/creates a POSIX named semaphore (denied in sandboxes).
func (p *Proc) SemOpen(name string, value int) error {
	if err := p.k.MAC.SystemCheck(p.Cred(), mac.OpPosixIPC, name); err != nil {
		return err
	}
	p.k.ipcMu.Lock()
	defer p.k.ipcMu.Unlock()
	if _, ok := p.k.posixSems[name]; !ok {
		p.k.posixSems[name] = value
	}
	return nil
}

// ShmGet creates/attaches a System V shared-memory segment (denied in
// sandboxes).
func (p *Proc) ShmGet(key int, size int) error {
	if err := p.k.MAC.SystemCheck(p.Cred(), mac.OpSysvIPC, fmt.Sprint(key)); err != nil {
		return err
	}
	p.k.ipcMu.Lock()
	defer p.k.ipcMu.Unlock()
	if _, ok := p.k.sysvShm[key]; !ok {
		p.k.sysvShm[key] = make([]byte, size)
	}
	return nil
}

// Procs returns a snapshot of live pids, for tests.
func (k *Kernel) Procs() []int {
	k.procsMu.RLock()
	defer k.procsMu.RUnlock()
	pids := make([]int, 0, len(k.procs))
	for pid := range k.procs {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	return pids
}
