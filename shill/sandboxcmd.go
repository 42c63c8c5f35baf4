package shill

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/cap"
	"repro/internal/netstack"
	"repro/internal/priv"
	"repro/internal/sandbox"
	"repro/internal/stdlib"
)

// This file is the programmatic form of the paper's command-line
// debugging tool (§3.2.2): run one native command inside a
// capability-based sandbox whose authority comes from a parsed policy,
// optionally in debugging mode (missing privileges are auto-granted and
// logged — "a useful starting point for identifying necessary
// capabilities to provide to a SHILL script").

// SandboxPolicy is a parsed set of capability grants.
//
// Policy text syntax, one grant per line:
//
//	# path                privileges
//	/usr/src              +lookup, +contents, +stat, +path, +read
//	/home/user/out.txt    +write, +append
//	socket ip             +sock-create, +sock-connect, +sock-send, +sock-recv
//
// A privilege may carry a derivation modifier: +lookup with (+read,
// +stat). Relative paths resolve against /home/user.
type SandboxPolicy struct {
	grants []grantLine
}

// grantLine is one parsed policy grant.
type grantLine struct {
	path   string // filesystem grants
	socket string // "ip" or "unix" for socket-factory grants
	grant  *priv.Grant
}

// ParseSandboxPolicy parses the policy file format.
func ParseSandboxPolicy(src string) (*SandboxPolicy, error) {
	var out []grantLine
	for lineNo, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.SplitN(line, " ", 2)
		if len(fields) != 2 {
			return nil, fmt.Errorf("line %d: want \"<path> <privileges>\"", lineNo+1)
		}
		target := fields[0]
		rest := strings.TrimSpace(fields[1])
		g := grantLine{}
		if target == "socket" {
			sub := strings.SplitN(rest, " ", 2)
			if len(sub) != 2 || (sub[0] != "ip" && sub[0] != "unix") {
				return nil, fmt.Errorf("line %d: want \"socket ip|unix <privileges>\"", lineNo+1)
			}
			g.socket = sub[0]
			rest = sub[1]
		} else {
			if !strings.HasPrefix(target, "/") {
				target = "/home/user/" + target
			}
			g.path = target
		}
		grant, err := parseGrant(rest)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo+1, err)
		}
		g.grant = grant
		out = append(out, g)
	}
	return &SandboxPolicy{grants: out}, nil
}

// parseGrant parses "+a, +b with (+c, +d), +e".
func parseGrant(s string) (*priv.Grant, error) {
	g := &priv.Grant{}
	for len(s) > 0 {
		s = strings.TrimLeft(s, " \t,")
		if s == "" {
			break
		}
		if !strings.HasPrefix(s, "+") {
			return nil, fmt.Errorf("expected +privilege at %q", s)
		}
		s = s[1:]
		end := strings.IndexAny(s, " ,\t")
		name := s
		if end >= 0 {
			name = s[:end]
			s = s[end:]
		} else {
			s = ""
		}
		r, err := priv.ParseRight(strings.ReplaceAll(name, "_", "-"))
		if err != nil {
			return nil, err
		}
		g.Rights = g.Rights.Add(r)
		s = strings.TrimLeft(s, " \t")
		if strings.HasPrefix(s, "with") {
			s = strings.TrimLeft(s[4:], " \t")
			if !strings.HasPrefix(s, "(") {
				return nil, fmt.Errorf("expected ( after with")
			}
			close := strings.IndexByte(s, ')')
			if close < 0 {
				return nil, fmt.Errorf("unterminated with(...)")
			}
			sub, err := parseGrant(s[1:close])
			if err != nil {
				return nil, err
			}
			if g.Derived == nil {
				g.Derived = make(map[priv.Right]*priv.Grant)
			}
			g.Derived[r] = sub
			s = s[close+1:]
		}
	}
	return g, nil
}

// SandboxCommand describes one sandboxed native command.
type SandboxCommand struct {
	// Argv is the command line; Argv[0] is resolved against the image
	// PATH when it has no slash.
	Argv []string
	// Policy supplies the sandbox's capability grants (nil: only the
	// executable, the library directories, and the console).
	Policy *SandboxPolicy
	// Debug runs the sandbox in debugging mode: missing privileges are
	// granted automatically and recorded.
	Debug bool
}

// SandboxResult reports a finished sandboxed command.
type SandboxResult struct {
	ExitStatus int
	Console    string
	SessionID  uint64 // kernel session, 0 if the sandbox never formed
	// Denials and AutoGrants are the session log's formatted entries:
	// what was refused, and (in debug mode) what was granted on the fly
	// — the lines to add to the policy.
	Denials    []string
	AutoGrants []string
	// Trail is the session's retained audit trail, formatted.
	Trail []string
}

// ExecSandboxed runs one native command in a fresh capability-based
// sandbox on the machine, with the authority the policy grants plus the
// executable, the shared-library directories (read-only), and the
// machine console as stdio. Cancellation kills the sandboxed process
// tree. The SandboxResult is non-nil even on error whenever the sandbox
// got far enough to say anything useful.
func (m *Machine) ExecSandboxed(ctx context.Context, cmd SandboxCommand) (*SandboxResult, error) {
	if len(cmd.Argv) == 0 {
		return nil, fmt.Errorf("shill: ExecSandboxed needs an argv")
	}
	exePath, err := m.LookPath(cmd.Argv[0])
	if err != nil {
		return nil, err
	}
	exeVn, err := m.sys.K.FS.Resolve(exePath)
	if err != nil {
		return nil, err
	}
	runtime := m.sys.Runtime
	exe := cap.NewFile(runtime, exeVn, stdlib.ExecGrant)

	consoleCap := func() *cap.Capability {
		return cap.NewFile(runtime, m.sys.K.FS.MustResolve("/dev/console"), priv.FullGrant())
	}
	opts := sandbox.Options{
		Debug:   cmd.Debug,
		Logging: true,
		Stdout:  consoleCap(),
		Stderr:  consoleCap(),
		Stdin:   consoleCap(),
	}
	// Library directories ride along read-only, as pkg_native would
	// arrange.
	for _, libDir := range []string{"/lib", "/usr/local/lib"} {
		if vn, lerr := m.sys.K.FS.Resolve(libDir); lerr == nil {
			opts.Extras = append(opts.Extras, cap.NewDir(runtime, vn, stdlib.ReadOnlyDirGrant))
		}
	}
	args := make([]sandbox.Arg, 0, len(cmd.Argv)-1)
	for _, a := range cmd.Argv[1:] {
		args = append(args, sandbox.StrArg(a))
	}
	if cmd.Policy != nil {
		for _, g := range cmd.Policy.grants {
			if g.socket != "" {
				domain := netstack.DomainIP
				if g.socket == "unix" {
					domain = netstack.DomainUnix
				}
				opts.SocketFactories = append(opts.SocketFactories,
					cap.NewSocketFactory(runtime, domain, g.grant))
				continue
			}
			vn, rerr := m.sys.K.FS.Resolve(g.path)
			if rerr != nil {
				return nil, fmt.Errorf("policy: %s: %w", g.path, rerr)
			}
			opts.Extras = append(opts.Extras, cap.NewForVnode(runtime, vn, g.grant))
		}
	}

	// The sandbox launches from the default session's process and writes
	// the shared console, so it takes that session's run lock: concurrent
	// ExecSandboxed/Run calls must not share one interrupt gate, kill
	// each other's children, or steal each other's console output.
	ds := m.DefaultSession()
	ds.runMu.Lock()
	ds.console.ResetOutput()
	release := ds.armCancel(ctx)
	res, execErr := sandbox.Exec(runtime, exe, args, opts)
	release()
	consoleOut := string(ds.console.Output())
	ds.console.ResetOutput()
	ds.runMu.Unlock()

	out := &SandboxResult{ExitStatus: res.ExitCode, Console: consoleOut}
	if res.Session != nil {
		out.SessionID = res.Session.ID()
		for _, e := range m.AuditEvents(AuditFilter{Session: res.Session.ID()}) {
			out.Trail = append(out.Trail, FormatAuditEvent(e))
		}
		if log := res.Session.Log(); log != nil {
			for _, e := range log.Denials() {
				out.Denials = append(out.Denials, e.String())
			}
			for _, e := range log.AutoGrants() {
				out.AutoGrants = append(out.AutoGrants, e.String())
			}
		}
	}
	if execErr != nil {
		return out, fmt.Errorf("exec: %w", execErr)
	}
	return out, nil
}
