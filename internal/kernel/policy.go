package kernel

import (
	"sync"
	"sync/atomic"

	"repro/internal/audit"
	"repro/internal/errno"
	"repro/internal/mac"
	"repro/internal/netstack"
	"repro/internal/priv"
	"repro/internal/prof"
	"repro/internal/vfs"
)

// policyName is the label slot key for the SHILL policy module.
const policyName = "shill"

// privMap is the per-object privilege map the SHILL policy attaches to
// kernel objects via MAC labels: "a map from sessions to sets of
// privileges" (§3.2.2). Entries are keyed by session identity.
type privMap struct {
	mu sync.RWMutex
	m  map[*Session]*priv.Grant
}

// pmOf returns the object's privilege map, creating it on first use.
// The read path is tried first so that concurrent sessions touching an
// already-labelled object (shared binaries, library directories) never
// take the label's exclusive lock.
func pmOf(l *mac.Label) *privMap {
	if v := l.Get(policyName); v != nil {
		return v.(*privMap)
	}
	return l.GetOrInit(policyName, func() any {
		return &privMap{m: make(map[*Session]*priv.Grant)}
	}).(*privMap)
}

// pmPeek returns the object's privilege map only if one exists. The hot
// check path uses this to avoid allocating maps on unlabelled objects.
func pmPeek(l *mac.Label) *privMap {
	v := l.Get(policyName)
	if v == nil {
		return nil
	}
	return v.(*privMap)
}

func (pm *privMap) get(s *Session) *priv.Grant {
	if pm == nil {
		return nil
	}
	pm.mu.RLock()
	defer pm.mu.RUnlock()
	return pm.m[s]
}

// install sets or merges an entry for s, applying the
// privilege-amplification rule (§3.2.2): plain rights are unioned, but a
// deriving right whose modifier conflicts with the existing entry's is
// not merged — the existing modifier stands. When amplify is true (the
// ablation configuration) conflicting modifiers are unioned instead.
func (pm *privMap) install(s *Session, g *priv.Grant, amplify bool) (created bool) {
	if g == nil {
		return false
	}
	// Fast path: repeated propagation installs the same derived grant on
	// every lookup of the same child. Under the no-amplify rule a merge
	// where the existing entry already holds every incoming right is a
	// no-op (plain rights union to themselves; for deriving rights the
	// existing modifier always stands), so the write lock — and the
	// Clone it guards — can be skipped entirely.
	if !amplify {
		pm.mu.RLock()
		existing, ok := pm.m[s]
		pm.mu.RUnlock()
		if ok && existing.HasAll(g.Rights) {
			return false
		}
	}
	pm.mu.Lock()
	defer pm.mu.Unlock()
	existing, ok := pm.m[s]
	if !ok {
		pm.m[s] = g.Clone()
		return true
	}
	if amplify {
		pm.m[s] = mergeAmplify(existing, g)
	} else {
		pm.m[s] = mergeNoAmplify(existing, g)
	}
	return false
}

// mergeAmplify is the unsafe union used only by the ablation benchmark:
// rights and modifiers both union, reintroducing the privilege
// amplification the paper's rule prevents.
func mergeAmplify(a, b *priv.Grant) *priv.Grant {
	out := a.Clone()
	out.Rights = out.Rights.Union(b.Rights)
	for r, sub := range b.Derived {
		if out.Derived == nil {
			out.Derived = make(map[priv.Right]*priv.Grant)
		}
		if existing, ok := out.Derived[r]; ok {
			merged := existing.Clone()
			merged.Rights = merged.Rights.Union(sub.Rights)
			out.Derived[r] = merged
		} else {
			out.Derived[r] = sub.Clone()
		}
	}
	return out
}

func (pm *privMap) remove(s *Session) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	delete(pm.m, s)
}

// mergeNoAmplify merges incoming grant b into existing grant a. Plain
// rights union; for deriving rights, if a already holds the right with a
// different modifier than b, a's modifier is kept ("we have found that
// this conservative approach to prevent privilege amplification works
// well in practice", §3.2.2).
func mergeNoAmplify(a, b *priv.Grant) *priv.Grant {
	out := a.Clone()
	for _, r := range b.Rights.Rights() {
		if !r.Deriving() {
			out.Rights = out.Rights.Add(r)
			continue
		}
		bSub := b.DerivedGrant(r)
		if !a.Has(r) {
			// Adopt b's deriving right and its modifier.
			out.Rights = out.Rights.Add(r)
			if bs, ok := b.Derived[r]; ok {
				if out.Derived == nil {
					out.Derived = make(map[priv.Right]*priv.Grant)
				}
				out.Derived[r] = bs.Clone()
			}
			continue
		}
		aSub := a.DerivedGrant(r)
		if aSub == a && bSub == b {
			continue // both inherit: compatible
		}
		// Conflicting modifiers: keep a's (no merge).
		_ = bSub
	}
	return out
}

// requiredVnodeRights maps each mediated vnode operation to the
// privilege set a session must hold. OpVnodeWrite demands both +write
// and +append because the framework cannot distinguish them (§3.2.3).
var requiredVnodeRights = map[mac.VnodeOp]priv.Set{
	mac.OpVnodeLookup:        priv.NewSet(priv.RLookup),
	mac.OpVnodeRead:          priv.NewSet(priv.RRead),
	mac.OpVnodeWrite:         priv.NewSet(priv.RWrite, priv.RAppend),
	mac.OpVnodeStat:          priv.NewSet(priv.RStat),
	mac.OpVnodeExec:          priv.NewSet(priv.RExec),
	mac.OpVnodeReaddir:       priv.NewSet(priv.RContents),
	mac.OpVnodeCreateFile:    priv.NewSet(priv.RCreateFile),
	mac.OpVnodeCreateDir:     priv.NewSet(priv.RCreateDir),
	mac.OpVnodeCreateSymlink: priv.NewSet(priv.RCreateSymlink),
	mac.OpVnodeReadSymlink:   priv.NewSet(priv.RReadSymlink),
	mac.OpVnodeUnlinkFile:    priv.NewSet(priv.RUnlinkFile),
	mac.OpVnodeUnlinkDir:     priv.NewSet(priv.RUnlinkDir),
	mac.OpVnodeUnlinked:      priv.NewSet(priv.RUnlink),
	mac.OpVnodeLink:          priv.NewSet(priv.RLink),
	mac.OpVnodeAddLink:       priv.NewSet(priv.RAddLink),
	mac.OpVnodeRename:        priv.NewSet(priv.RRename),
	mac.OpVnodeChmod:         priv.NewSet(priv.RChmod),
	mac.OpVnodeChown:         priv.NewSet(priv.RChown),
	mac.OpVnodeChflags:       priv.NewSet(priv.RChflags),
	mac.OpVnodeUtimes:        priv.NewSet(priv.RUtimes),
	mac.OpVnodeTruncate:      priv.NewSet(priv.RTruncate),
	mac.OpVnodeChdir:         priv.NewSet(priv.RChdir),
	mac.OpVnodePathLookup:    priv.NewSet(priv.RPath),
}

var requiredSockRights = map[mac.SocketOp]priv.Right{
	mac.OpSockCreate:  priv.RSockCreate,
	mac.OpSockBind:    priv.RSockBind,
	mac.OpSockConnect: priv.RSockConnect,
	mac.OpSockListen:  priv.RSockListen,
	mac.OpSockAccept:  priv.RSockAccept,
	mac.OpSockSend:    priv.RSockSend,
	mac.OpSockRecv:    priv.RSockRecv,
}

// PolicyStats counts policy activity; benchmarks and tests read it.
type PolicyStats struct {
	Checks       uint64
	Denials      uint64
	AutoGrants   uint64
	Propagations uint64
	Grants       uint64
}

// ShillPolicy is the SHILL MAC policy module (§3.2). It restricts only
// processes whose credential carries an entered session; for everything
// else every check is a constant-time pass — which is why the paper's
// "SHILL installed" configuration shows negligible overhead.
type ShillPolicy struct {
	k      *Kernel
	logAll atomic.Bool

	// Ablation knobs (benchmarks only): disable privilege propagation on
	// lookup/create, or allow conflicting modifiers to merge (turning
	// off the §3.2.2 privilege-amplification defence).
	noPropagation atomic.Bool
	allowAmplify  atomic.Bool

	checks       atomic.Uint64
	denials      atomic.Uint64
	autoGrants   atomic.Uint64
	propagations atomic.Uint64
	grants       atomic.Uint64
}

// SetPropagation toggles the post-lookup/post-create privilege
// propagation (ablation benchmarks).
func (pol *ShillPolicy) SetPropagation(on bool) { pol.noPropagation.Store(!on) }

// SetAmplificationDefence toggles the no-merge rule for conflicting
// derivation modifiers (ablation benchmarks; true = paper behaviour).
func (pol *ShillPolicy) SetAmplificationDefence(on bool) { pol.allowAmplify.Store(!on) }

func newShillPolicy(k *Kernel) *ShillPolicy { return &ShillPolicy{k: k} }

// Name returns the policy's registration name.
func (pol *ShillPolicy) Name() string { return policyName }

// SetLogAll enables logging for all future sessions (the privileged
// log-viewing facility of §3.2.2).
func (pol *ShillPolicy) SetLogAll(on bool) { pol.logAll.Store(on) }

// Stats returns a snapshot of policy counters.
func (pol *ShillPolicy) Stats() PolicyStats {
	return PolicyStats{
		Checks:       pol.checks.Load(),
		Denials:      pol.denials.Load(),
		AutoGrants:   pol.autoGrants.Load(),
		Propagations: pol.propagations.Load(),
		Grants:       pol.grants.Load(),
	}
}

// ResetStats zeroes the counters (benchmarks).
func (pol *ShillPolicy) ResetStats() {
	pol.checks.Store(0)
	pol.denials.Store(0)
	pol.autoGrants.Store(0)
	pol.propagations.Store(0)
	pol.grants.Store(0)
}

// sessionOf extracts the SHILL session from a subject credential.
func sessionOf(cred *mac.Cred) *Session {
	v := cred.MACLabel().Get(policyName)
	if v == nil {
		return nil
	}
	return v.(*Session)
}

// enteredSession returns the subject's session if it is enforcing.
func enteredSession(cred *mac.Cred) *Session {
	s := sessionOf(cred)
	if s == nil || !s.entered.Load() {
		return nil
	}
	return s
}

// grantObject installs a grant for the session on an object's privilege
// map, recording it for teardown, logging, and the audit trail. The
// audit event fires only when the install creates the session's entry
// on the object: the grant phase re-grants shared ancestors (bare
// lookup on /, /usr, …) once per capability, and those no-op merges
// would otherwise dominate the trail — and pay a reverse path lookup
// each — without adding information.
func (pol *ShillPolicy) grantObject(s *Session, obj mac.Labeled, g *priv.Grant) {
	pm := pmOf(obj.MACLabel())
	created := pm.install(s, g, pol.allowAmplify.Load())
	if created {
		s.recordLabeled(pm)
	}
	pol.grants.Add(1)
	if s.log != nil || created {
		objFn := audit.DeferObject(func() string { return pol.objName(obj) }) // one memoized lookup serves both records
		if s.log != nil {
			s.log.add(LogEntry{Kind: LogGrant, Op: "grant", Object: objFn.Value(), Rights: g.Rights})
		}
		if created {
			pol.k.aud.Emit(s.shard, audit.Event{
				Kind: audit.KindGrant, Layer: audit.LayerPolicy, Policy: policyName,
				Op: "grant", ObjectFn: objFn, Rights: g.Rights,
			})
		}
	}
}

// objName renders an object for log entries.
func (pol *ShillPolicy) objName(obj mac.Labeled) string {
	switch o := obj.(type) {
	case *vfs.Vnode:
		if path, ok := pol.k.FS.PathOf(o); ok {
			return path
		}
		return "vnode"
	case *vfs.Pipe:
		return "pipe"
	case *netstack.Socket:
		return "socket(" + o.Domain().String() + ")"
	}
	return "object"
}

// deny records and returns a structured denial, or auto-grants in debug
// mode. held is the grant the session actually holds on the object (nil
// when it holds none); the returned *audit.DenyReason names exactly the
// privileges that were missing, and the denial is retained in the audit
// log's per-shard denial ring so it survives allow-event churn.
func (pol *ShillPolicy) deny(s *Session, obj mac.Labeled, op string, need priv.Set, held *priv.Grant) error {
	if s.debug {
		pol.autoGrants.Add(1)
		pm := pmOf(obj.MACLabel())
		if pm.install(s, priv.GrantOf(need), pol.allowAmplify.Load()) {
			s.recordLabeled(pm)
		}
		objFn := audit.DeferObject(func() string { return pol.objName(obj) })
		if s.log != nil {
			s.log.add(LogEntry{Kind: LogAutoGrant, Op: op, Object: objFn.Value(), Rights: need})
		}
		pol.k.aud.Emit(s.shard, audit.Event{
			Kind: audit.KindAutoGrant, Layer: audit.LayerPolicy, Policy: policyName,
			Op: op, ObjectFn: objFn, Rights: need,
		})
		return nil
	}
	pol.denials.Add(1)
	// The denial's object description (a reverse path walk for vnodes)
	// is deferred: the hot path captures a closure over the object, and
	// the walk happens only if something formats or serializes the
	// reason or queries the event. The LazyObject is shared between the
	// reason and the event, so at most one walk ever runs.
	objFn := audit.DeferObject(func() string { return pol.objName(obj) })
	if s.log != nil {
		// The in-kernel debug log stores plain strings; resolve now
		// (the memo makes the later views free).
		s.log.add(LogEntry{Kind: LogDeny, Op: op, Object: objFn.Value(), Rights: need})
	}
	missing := need
	if held != nil {
		missing = need.Minus(held.Rights)
	}
	reason := &audit.DenyReason{
		Layer: audit.LayerPolicy, Policy: policyName,
		Op: op, ObjectFn: objFn, Session: s.id,
		Missing: missing, TraceID: s.trace.Load(), Errno: errno.EACCES,
	}
	reason.Seq = pol.k.aud.Emit(s.shard, audit.Event{
		Kind: audit.KindSyscall, Verdict: audit.Deny,
		Layer: audit.LayerPolicy, Policy: policyName,
		Op: op, ObjectFn: objFn, Rights: missing,
		Trace: reason.TraceID,
	})
	return reason
}

// allow records a permitted check. The object is identified by the
// operation's name component only — reverse-resolving a full path on
// every allowed syscall would dwarf the cost of the check itself.
func (pol *ShillPolicy) allow(s *Session, op, name string) {
	pol.k.aud.Emit(s.shard, audit.Event{
		Kind: audit.KindSyscall, Verdict: audit.Allow,
		Layer: audit.LayerPolicy, Policy: policyName,
		Op: op, Object: name,
	})
}

// VnodeCheck verifies the session holds the privileges the operation
// requires on the vnode.
func (pol *ShillPolicy) VnodeCheck(cred *mac.Cred, vn mac.Labeled, op mac.VnodeOp, name string) error {
	s := enteredSession(cred)
	if s == nil {
		return nil
	}
	pol.checks.Add(1)
	defer pol.k.Prof.End(prof.Policy, pol.k.Prof.Begin(prof.Policy))
	need, ok := requiredVnodeRights[op]
	if !ok {
		return pol.deny(s, vn, op.String(), 0, nil)
	}
	g := pmPeek(vn.MACLabel()).get(s)
	if g.HasAll(need) {
		pol.allow(s, op.String(), name)
		return nil
	}
	return pol.deny(s, vn, op.String(), need, g)
}

// VnodePostLookup propagates privileges from a directory to a child
// after a successful lookup — the mac_vnode_post_lookup hook the paper
// added to the framework. Privileges never propagate through ".." (the
// fine-grained confinement rule) or "." (privilege amplification,
// footnote 5).
func (pol *ShillPolicy) VnodePostLookup(cred *mac.Cred, dir, child mac.Labeled, name string) {
	s := enteredSession(cred)
	if s == nil || pol.noPropagation.Load() {
		return
	}
	if name == ".." || name == "." {
		return
	}
	dg := pmPeek(dir.MACLabel()).get(s)
	if dg == nil || !dg.Has(priv.RLookup) {
		return
	}
	derived := dg.DerivedGrant(priv.RLookup)
	if derived == nil || derived.Rights.Empty() {
		return
	}
	pol.propagate(s, child, "lookup", name, derived)
}

// propagate installs a derived grant on child and records it. The audit
// event fires only when the install creates the entry: re-walking the
// same path re-installs the same derived grant, which would flood the
// ring with duplicates.
func (pol *ShillPolicy) propagate(s *Session, child mac.Labeled, op, name string, derived *priv.Grant) {
	pm := pmOf(child.MACLabel())
	created := pm.install(s, derived, pol.allowAmplify.Load())
	if created {
		s.recordLabeled(pm)
	}
	pol.propagations.Add(1)
	if s.log != nil {
		s.log.add(LogEntry{Kind: LogPropagate, Op: op, Object: name, Rights: derived.Rights})
	}
	if created {
		pol.k.aud.Emit(s.shard, audit.Event{
			Kind: audit.KindPropagate, Layer: audit.LayerPolicy, Policy: policyName,
			Op: op, Object: name, Rights: derived.Rights,
		})
	}
}

// VnodePostCreate labels a newly created object with the creating
// session's derived privileges — the mac_vnode_post_create hook.
func (pol *ShillPolicy) VnodePostCreate(cred *mac.Cred, dir, child mac.Labeled, name string, op mac.VnodeOp) {
	s := enteredSession(cred)
	if s == nil || pol.noPropagation.Load() {
		return
	}
	var r priv.Right
	switch op {
	case mac.OpVnodeCreateFile:
		r = priv.RCreateFile
	case mac.OpVnodeCreateDir:
		r = priv.RCreateDir
	case mac.OpVnodeCreateSymlink:
		r = priv.RCreateSymlink
	default:
		return
	}
	dg := pmPeek(dir.MACLabel()).get(s)
	if dg == nil || !dg.Has(r) {
		return
	}
	derived := dg.DerivedGrant(r)
	if derived == nil || derived.Rights.Empty() {
		return
	}
	pol.propagate(s, child, "create", name, derived)
}

// PipeCheck verifies pipe privileges.
func (pol *ShillPolicy) PipeCheck(cred *mac.Cred, p mac.Labeled, op mac.PipeOp) error {
	s := enteredSession(cred)
	if s == nil {
		return nil
	}
	pol.checks.Add(1)
	defer pol.k.Prof.End(prof.Policy, pol.k.Prof.Begin(prof.Policy))
	var need priv.Set
	switch op {
	case mac.OpPipeRead:
		need = priv.NewSet(priv.RRead)
	case mac.OpPipeWrite:
		need = priv.NewSet(priv.RWrite)
	case mac.OpPipeStat:
		need = priv.NewSet(priv.RStat)
	}
	g := pmPeek(p.MACLabel()).get(s)
	if g.HasAll(need) {
		pol.allow(s, op.String(), "")
		return nil
	}
	return pol.deny(s, p, op.String(), need, g)
}

// SocketCheck verifies socket privileges. Creation consults the
// session's socket-factory grant for the socket's domain; the new socket
// is then labelled with that grant so subsequent operations check
// against it.
func (pol *ShillPolicy) SocketCheck(cred *mac.Cred, so mac.Labeled, op mac.SocketOp) error {
	s := enteredSession(cred)
	if s == nil {
		return nil
	}
	pol.checks.Add(1)
	defer pol.k.Prof.End(prof.Policy, pol.k.Prof.Begin(prof.Policy))
	r := requiredSockRights[op]
	if op == mac.OpSockCreate {
		sock, ok := so.(*netstack.Socket)
		if !ok {
			return pol.deny(s, so, op.String(), priv.NewSet(r), nil)
		}
		s.mu.Lock()
		factory := s.sockGrants[sock.Domain()]
		s.mu.Unlock()
		if !factory.Has(priv.RSockCreate) {
			return pol.deny(s, so, op.String(), priv.NewSet(r), factory)
		}
		pm := pmOf(so.MACLabel())
		if pm.install(s, factory, pol.allowAmplify.Load()) {
			s.recordLabeled(pm)
		}
		pol.allow(s, op.String(), sock.Domain().String())
		return nil
	}
	g := pmPeek(so.MACLabel()).get(s)
	if g.Has(r) {
		pol.allow(s, op.String(), "")
		return nil
	}
	return pol.deny(s, so, op.String(), priv.NewSet(r), g)
}

// SocketPostAccept labels an accepted connection with the listener's
// privileges for the accepting session.
func (pol *ShillPolicy) SocketPostAccept(cred *mac.Cred, listener, conn mac.Labeled) {
	s := enteredSession(cred)
	if s == nil {
		return
	}
	g := pmPeek(listener.MACLabel()).get(s)
	if g == nil {
		return
	}
	pm := pmOf(conn.MACLabel())
	if pm.install(s, g, pol.allowAmplify.Load()) {
		s.recordLabeled(pm)
	}
}

// ProcCheck enforces the process-interaction policy (§3.2.2): sandboxed
// processes may signal, wait for, or debug only processes in the same
// session or a descendant session.
func (pol *ShillPolicy) ProcCheck(cred, target *mac.Cred, op mac.ProcOp) error {
	s := enteredSession(cred)
	if s == nil {
		return nil
	}
	pol.checks.Add(1)
	defer pol.k.Prof.End(prof.Policy, pol.k.Prof.Begin(prof.Policy))
	t := sessionOf(target)
	if t != nil && t.isDescendantOf(s) {
		pol.allow(s, op.String(), "process")
		return nil
	}
	pol.denials.Add(1)
	if s.log != nil {
		s.log.add(LogEntry{Kind: LogDeny, Op: op.String(), Object: "process"})
	}
	reason := &audit.DenyReason{
		Layer: audit.LayerPolicy, Policy: policyName,
		Op: op.String(), Object: "process", Session: s.id,
		TraceID: s.trace.Load(), Errno: errno.EPERM,
	}
	reason.Seq = pol.k.aud.Emit(s.shard, audit.Event{
		Kind: audit.KindSyscall, Verdict: audit.Deny,
		Layer: audit.LayerPolicy, Policy: policyName,
		Op: op.String(), Object: "process",
		Detail: "target process is outside the session hierarchy (§3.2.2 process interaction)",
		Trace:  reason.TraceID,
	})
	return reason
}

// SystemCheck enforces the Figure 7 policy rows: sysctl is read-only in
// a sandbox; the kernel environment, kernel modules, and both IPC
// families are denied.
func (pol *ShillPolicy) SystemCheck(cred *mac.Cred, op mac.SystemOp, name string) error {
	s := enteredSession(cred)
	if s == nil {
		return nil
	}
	pol.checks.Add(1)
	defer pol.k.Prof.End(prof.Policy, pol.k.Prof.Begin(prof.Policy))
	if op == mac.OpSysctlRead {
		pol.allow(s, op.String(), name)
		return nil
	}
	pol.denials.Add(1)
	if s.log != nil {
		s.log.add(LogEntry{Kind: LogDeny, Op: op.String(), Object: name})
	}
	reason := &audit.DenyReason{
		Layer: audit.LayerPolicy, Policy: policyName,
		Op: op.String(), Object: name, Session: s.id,
		TraceID: s.trace.Load(), Errno: errno.EPERM,
	}
	reason.Seq = pol.k.aud.Emit(s.shard, audit.Event{
		Kind: audit.KindSyscall, Verdict: audit.Deny,
		Layer: audit.LayerPolicy, Policy: policyName,
		Op: op.String(), Object: name,
		Detail: "denied for all sandboxes (Figure 7 policy rows)",
		Trace:  reason.TraceID,
	})
	return reason
}

// GrantToSession is the kernel-internal grant used by the runtime when
// it launches a sandbox on behalf of a proc with no session of its own:
// the language runtime enforces contracts, so the grant is taken at
// face value. It is also the hook for the shill-sandbox debugging tool.
func (pol *ShillPolicy) GrantToSession(s *Session, obj mac.Labeled, g *priv.Grant) {
	pol.grantObject(s, obj, g)
}

// SessionGrantOn reports the grant a session holds on an object (tests
// and diagnostics).
func (pol *ShillPolicy) SessionGrantOn(s *Session, obj mac.Labeled) *priv.Grant {
	return pmPeek(obj.MACLabel()).get(s)
}
