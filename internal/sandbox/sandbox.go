// Package sandbox implements SHILL's capability-based sandboxes (§2.3,
// §3.2): the exec built-in forks a process, creates a session via
// shill_init, grants the session exactly the capabilities passed to
// exec, calls shill_enter, and only then transfers control to the
// executable. The sandboxed execution is then confined by the SHILL MAC
// policy to the authority those capabilities imply.
package sandbox

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/audit"
	"repro/internal/cap"
	"repro/internal/errno"
	"repro/internal/kernel"
	"repro/internal/priv"
	"repro/internal/prof"
	"repro/internal/trace"
)

// Arg is one executable argument: either a plain string or a capability.
// Capability arguments are passed to the executable as paths ("the path
// to the given file is passed to the executable as an argument", §2.3)
// and simultaneously granted to the sandbox.
type Arg struct {
	Str string
	Cap *cap.Capability
}

// StrArg wraps a plain string argument.
func StrArg(s string) Arg { return Arg{Str: s} }

// CapArg wraps a capability argument.
func CapArg(c *cap.Capability) Arg { return Arg{Cap: c} }

// Options configure a sandboxed execution, mirroring exec's optional
// arguments (§2.3).
type Options struct {
	// Stdin, Stdout, Stderr are file capabilities (files, pipe ends, or
	// devices) wired to descriptors 0-2.
	Stdin, Stdout, Stderr *cap.Capability
	// Extras are additional capabilities the executable needs (libraries,
	// configuration files, directories).
	Extras []*cap.Capability
	// SocketFactories allow the sandbox to create sockets per domain.
	SocketFactories []*cap.Capability
	// WorkDir sets the sandbox working directory (defaults to the
	// filesystem root). It is granted to the session like an extra.
	WorkDir *cap.Capability
	// Limits optionally attenuates the child's ulimits ("SHILL allows
	// calls to the exec function to specify ulimit parameters", Fig. 7).
	Limits *kernel.Ulimits
	// Debug runs the sandbox in debugging mode: missing privileges are
	// granted automatically and logged (§3.2.2 "Debugging").
	Debug bool
	// Logging records grants and denials without auto-granting.
	Logging bool
	// Trace, when non-nil, receives sandbox-setup and sandbox-exec spans
	// (children of TraceParent) so a request trace decomposes each exec
	// the same way the kernel's profile decomposes the whole run.
	Trace       *trace.Ref
	TraceParent uint64
}

// Result reports a finished sandboxed execution.
type Result struct {
	ExitCode int
	Session  *kernel.Session
}

// Exec runs the executable capability in a fresh capability-based
// sandbox and waits for it to finish. The session's authority is exactly
// the union of the capabilities reachable from the arguments and
// options; the runtime's own (possibly ambient) authority is never
// inherited.
func Exec(runtime *kernel.Proc, exe *cap.Capability, args []Arg, opts Options) (Result, error) {
	setupStart := time.Now()
	if exe == nil || exe.Vnode() == nil {
		return Result{}, errno.EINVAL
	}
	// Demand (not a bare grant check) so the refusal is recorded in the
	// audit log like every other capability denial — the conformance
	// oracle matches script-visible failures against audited denials.
	if err := exe.Demand("exec", priv.NewSet(priv.RExec)); err != nil {
		return Result{}, err
	}

	child, err := runtime.Fork()
	if err != nil {
		return Result{}, err
	}
	session, err := child.ShillInit(kernel.SessionOptions{Debug: opts.Debug, Logging: opts.Logging})
	if err != nil {
		child.Abandon()
		reap(runtime, child)
		return Result{}, err
	}

	fail := func(err error) (Result, error) {
		child.Abandon()
		reap(runtime, child)
		return Result{Session: session}, err
	}

	// Grant phase: everything the sandbox will hold must be granted
	// before shill_enter. Real capability grants run first; ancestor
	// lookup grants run second so the no-merge rule cannot shadow a
	// capability's own lookup modifier with the bare one.
	grants := []*cap.Capability{exe}
	argv := make([]string, 0, len(args))
	for _, a := range args {
		if a.Cap == nil {
			argv = append(argv, a.Str)
			continue
		}
		path, err := a.Cap.Path()
		if err != nil {
			return fail(fmt.Errorf("sandbox: capability argument has no usable path: %w", err))
		}
		grants = append(grants, a.Cap)
		argv = append(argv, path)
	}
	grants = append(grants, opts.Extras...)
	for _, c := range []*cap.Capability{opts.Stdin, opts.Stdout, opts.Stderr, opts.WorkDir} {
		if c != nil {
			grants = append(grants, c)
		}
	}
	for _, c := range grants {
		if err := grantCap(child, c); err != nil {
			return fail(err)
		}
	}
	for _, c := range grants {
		if c.Vnode() == nil {
			continue
		}
		if err := grantAncestorLookups(child, c); err != nil {
			return fail(err)
		}
	}
	for _, sf := range opts.SocketFactories {
		if sf == nil || sf.Kind() != cap.KindSocketFactory {
			return fail(errno.EINVAL)
		}
		if err := child.ShillGrantSocketFactory(sf.SocketDomain(), sf.Grant()); err != nil {
			return fail(err)
		}
	}

	// Stdio plumbing.
	stdin, err := stdioFD(opts.Stdin, true)
	if err != nil {
		return fail(err)
	}
	stdout, err := stdioFD(opts.Stdout, false)
	if err != nil {
		return fail(err)
	}
	stderr, err := stdioFD(opts.Stderr, false)
	if err != nil {
		return fail(err)
	}
	child.SetStdio(stdin, stdout, stderr)
	releaseStdio(stdin, stdout, stderr)

	if opts.WorkDir != nil && opts.WorkDir.Vnode() != nil {
		child.SetCWDVnode(opts.WorkDir.Vnode())
	} else {
		child.SetCWDVnode(runtime.Kernel().FS.Root())
	}
	if opts.Limits != nil {
		child.SetLimits(*opts.Limits)
	}

	if err := child.ShillEnter(); err != nil {
		return fail(err)
	}
	runtime.Kernel().Prof.Add(prof.SandboxSetup, time.Since(setupStart))
	opts.Trace.Add(trace.Span{
		Parent: opts.TraceParent, Kind: trace.KindSandboxSetup,
		Name: "sandbox-setup", Start: setupStart, Dur: time.Since(setupStart),
	})

	// The Enabled gate keeps the disabled configuration from paying the
	// reverse path lookup (Name) and detail formatting per spawn.
	aud := runtime.Kernel().Audit()
	var exePath string
	if aud.Enabled() {
		exePath = exe.Name() // Name needs no +path privilege, unlike Path
		aud.Emit(session.AuditShard(), audit.Event{
			Kind: audit.KindSpawn, Op: "sandbox-exec", Object: exePath,
			CapID: exe.ID(), Detail: fmt.Sprintf("%d grants", len(grants)),
		})
	}

	execStart := time.Now()
	if err := child.Exec(exe.Vnode(), argv); err != nil {
		return fail(err)
	}
	code, err := runtime.Wait(child.PID())
	if errors.Is(err, errno.EINTR) {
		// The runtime was interrupted (context cancellation) while the
		// sandboxed executable was still running: tear the child down and
		// reap it so a cancelled run leaks neither processes nor session
		// privilege-map entries, then surface the interruption.
		if killed, kerr := runtime.KillWait(child.PID()); kerr == nil {
			code = killed
		}
		err = fmt.Errorf("sandbox: execution interrupted: %w", errno.EINTR)
	}
	runtime.Kernel().Prof.Add(prof.SandboxExec, time.Since(execStart))
	opts.Trace.Add(trace.Span{
		Parent: opts.TraceParent, Kind: trace.KindSandboxExec,
		Name: "sandbox-exec", Detail: exePath,
		Start: execStart, Dur: time.Since(execStart),
	})
	if err != nil {
		return Result{ExitCode: code, Session: session}, err
	}
	if aud.Enabled() {
		aud.Emit(session.AuditShard(), audit.Event{
			Kind: audit.KindExit, Op: "sandbox-exit", Object: exePath,
			Detail: fmt.Sprintf("status %d", code),
		})
	}
	return Result{ExitCode: code, Session: session}, nil
}

func reap(runtime *kernel.Proc, child *kernel.Proc) {
	_, _ = runtime.Wait(child.PID())
}

// grantCap installs the capability's grant on its underlying kernel
// object for the child's (pre-enter) session. Derivation-producing
// grants keep their modifiers, so the MAC policy propagates exactly what
// the capability's contract allowed.
//
// For filesystem capabilities the runtime also grants a bare +lookup
// (with an empty derivation modifier, so nothing propagates) on every
// ancestor directory up to the root. This is the path-translation
// support behind passing capabilities to executables as path arguments
// (§2.3): the executable re-opens the path, and resolution must be able
// to walk to the labelled object — but gains no authority over anything
// else along the way.
func grantCap(child *kernel.Proc, c *cap.Capability) error {
	switch c.Kind() {
	case cap.KindFile, cap.KindDir:
		return child.ShillGrant(c.Vnode(), c.Grant())
	case cap.KindPipeEnd:
		return child.ShillGrant(c.PipeObject(), c.Grant())
	case cap.KindPipeFactory:
		// Pipe creation inside a sandbox is uncontrolled in the
		// prototype; pipes a sandbox creates are its own.
		return nil
	case cap.KindSocketFactory:
		return child.ShillGrantSocketFactory(c.SocketDomain(), c.Grant())
	}
	return errno.EINVAL
}

// bareLookup is the ancestor grant: lookup (deriving nothing), plus stat
// and path so executables can probe the prefix directories of the paths
// they were handed — but no read, write, or contents authority.
var bareLookup = func() *priv.Grant {
	g := priv.NewGrant(priv.RLookup, priv.RStat, priv.RPath)
	return g.WithDerived(priv.RLookup, &priv.Grant{})
}()

func grantAncestorLookups(child *kernel.Proc, c *cap.Capability) error {
	fs := child.Kernel().FS
	seen := 0
	for vn := fs.Parent(c.Vnode()); vn != nil; vn = fs.Parent(vn) {
		if err := child.ShillGrant(vn, bareLookup); err != nil {
			return err
		}
		if vn == fs.Root() {
			return nil
		}
		if seen++; seen > 256 {
			return errno.ELOOP
		}
	}
	return nil
}

// stdioFD converts a stdio capability into a file descriptor. Read/write
// direction follows the slot: stdin is read-only, stdout/stderr are
// append-mode writers (so concurrent sandboxes interleave whole writes).
func stdioFD(c *cap.Capability, isInput bool) (*kernel.FileDesc, error) {
	if c == nil {
		return nil, nil
	}
	switch c.Kind() {
	case cap.KindFile:
		vn := c.Vnode()
		if isInput {
			return kernel.NewVnodeFD(vn, true, false, false), nil
		}
		return kernel.NewVnodeFD(vn, false, true, true), nil
	case cap.KindPipeEnd:
		return kernel.NewPipeFD(c.PipeObject(), c.PipeIsReadEnd()), nil
	}
	return nil, errno.EINVAL
}

// releaseStdio drops the construction references now that SetStdio has
// duplicated them into the child.
func releaseStdio(fds ...*kernel.FileDesc) {
	for _, fd := range fds {
		if fd != nil {
			fd.Release()
		}
	}
}
