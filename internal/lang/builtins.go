package lang

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/cap"
	"repro/internal/contract"
	"repro/internal/errno"
	"repro/internal/kernel"
	"repro/internal/netstack"
	"repro/internal/priv"
	"repro/internal/sandbox"
	"repro/internal/vfs"
	"repro/internal/wallet"
)

// coreEnv builds the global environment shared by capability-safe
// scripts: predicates, capability operations, exec, and general string,
// list, and number helpers. Nothing in here confers ambient authority —
// every resource operation consumes a capability (§3.1.2).
func (it *Interp) coreEnv() *Env {
	env := NewEnv(nil)
	def := func(name string, v Value) {
		if err := env.Define(name, v); err != nil {
			panic(err)
		}
	}
	bi := func(name string, minA, maxA int, named []string,
		fn func(it *Interp, args []Value, named map[string]Value) (Value, error)) {
		def(name, &Builtin{Name: name, MinArgs: minA, MaxArgs: maxA, NamedOK: named, Fn: fn, interp: it})
	}

	// Predicates double as contracts.
	for _, p := range []*contract.Pred{
		contract.IsFile, contract.IsDir, contract.IsPipe, contract.IsBool,
		contract.IsString, contract.IsNum, contract.IsList, contract.IsFunc,
		contract.IsWallet, contract.IsPipeFactory, contract.IsSocketFactory,
		contract.Any,
	} {
		def(p.Name, predValue{p})
	}
	def("is_syserror", predValue{&contract.Pred{Name: "is_syserror", Fn: func(v Value) bool {
		_, ok := v.(SysError)
		return ok
	}}})
	def("is_void", predValue{&contract.Pred{Name: "is_void", Fn: func(v Value) bool {
		return v == nil
	}}})

	// --- capability operations ---

	bi("lookup", 2, 2, nil, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
		name, ok := args[1].(string)
		if !ok {
			return nil, fmt.Errorf("lookup expects a name string")
		}
		switch c := args[0].(type) {
		case *cap.Capability:
			child, err := c.Lookup(name)
			if err != nil {
				return asSyserror(err)
			}
			return child, nil
		case *contract.Sealed:
			view, err := c.View.Lookup(name)
			if err != nil {
				return sealedFailure(err, "lookup")
			}
			inner, err := c.Inner.Lookup(name)
			if err != nil {
				return asSyserror(err)
			}
			return c.Derive(inner, view), nil
		}
		return nil, fmt.Errorf("lookup expects a directory capability, got %s", FormatValue(args[0]))
	})

	bi("contents", 1, 1, nil, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
		c, err := viewOf(args[0], "contents")
		if err != nil {
			return nil, err
		}
		names, cerr := c.Contents()
		if cerr != nil {
			return opResult(args[0], cerr, "contents")
		}
		out := make([]Value, len(names))
		for i, n := range names {
			out[i] = n
		}
		return out, nil
	})

	bi("read", 1, 1, nil, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
		c, err := viewOf(args[0], "read")
		if err != nil {
			return nil, err
		}
		data, rerr := c.Read()
		if rerr != nil {
			return opResult(args[0], rerr, "read")
		}
		return string(data), nil
	})

	bi("write", 2, 2, nil, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
		c, err := viewOf(args[0], "write")
		if err != nil {
			return nil, err
		}
		s, ok := args[1].(string)
		if !ok {
			return nil, fmt.Errorf("write expects a string")
		}
		if werr := c.Write([]byte(s)); werr != nil {
			return opResult(args[0], werr, "write")
		}
		return nil, nil
	})

	bi("append", 2, 2, nil, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
		c, err := viewOf(args[0], "append")
		if err != nil {
			return nil, err
		}
		s, ok := args[1].(string)
		if !ok {
			return nil, fmt.Errorf("append expects a string")
		}
		if werr := c.Append([]byte(s)); werr != nil {
			return opResult(args[0], werr, "append")
		}
		return nil, nil
	})

	bi("path", 1, 1, nil, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
		c, err := viewOf(args[0], "path")
		if err != nil {
			return nil, err
		}
		p, perr := c.Path()
		if perr != nil {
			return opResult(args[0], perr, "path")
		}
		return p, nil
	})

	bi("name", 1, 1, nil, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
		c, err := viewOf(args[0], "name")
		if err != nil {
			return nil, err
		}
		return c.Name(), nil
	})

	bi("size", 1, 1, nil, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
		c, err := viewOf(args[0], "size")
		if err != nil {
			return nil, err
		}
		st, serr := c.Stat()
		if serr != nil {
			return opResult(args[0], serr, "size")
		}
		return float64(st.Size), nil
	})

	bi("has_ext", 2, 2, nil, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
		c, err := viewOf(args[0], "has_ext")
		if err != nil {
			return nil, err
		}
		ext, ok := args[1].(string)
		if !ok {
			return nil, fmt.Errorf("has_ext expects an extension string")
		}
		return strings.HasSuffix(c.Name(), "."+strings.TrimPrefix(ext, ".")), nil
	})

	bi("create_file", 2, 2, nil, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
		return createIn(args[0], args[1], false)
	})
	bi("create_dir", 2, 2, nil, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
		return createIn(args[0], args[1], true)
	})

	bi("unlink", 2, 2, nil, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
		c, err := viewOf(args[0], "unlink")
		if err != nil {
			return nil, err
		}
		name, ok := args[1].(string)
		if !ok {
			return nil, fmt.Errorf("unlink expects a name string")
		}
		if uerr := c.Unlink(name); uerr != nil {
			return opResult(args[0], uerr, "unlink")
		}
		return nil, nil
	})

	bi("unlink_cap", 3, 3, nil, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
		dir, err := viewOf(args[0], "unlink_cap")
		if err != nil {
			return nil, err
		}
		name, ok := args[1].(string)
		if !ok {
			return nil, fmt.Errorf("unlink_cap expects a name string")
		}
		file, err := viewOf(args[2], "unlink_cap")
		if err != nil {
			return nil, err
		}
		if uerr := dir.UnlinkCap(name, file); uerr != nil {
			return opResult(args[0], uerr, "unlink_cap")
		}
		return nil, nil
	})

	bi("link", 3, 3, nil, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
		dir, err := viewOf(args[0], "link")
		if err != nil {
			return nil, err
		}
		name, ok := args[1].(string)
		if !ok {
			return nil, fmt.Errorf("link expects a name string")
		}
		file, err := viewOf(args[2], "link")
		if err != nil {
			return nil, err
		}
		if lerr := dir.Link(name, file); lerr != nil {
			return opResult(args[0], lerr, "link")
		}
		return nil, nil
	})

	bi("rename", 4, 4, nil, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
		src, err := viewOf(args[0], "rename")
		if err != nil {
			return nil, err
		}
		srcName, ok1 := args[1].(string)
		dst, err := viewOf(args[2], "rename")
		if err != nil {
			return nil, err
		}
		dstName, ok2 := args[3].(string)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("rename expects name strings")
		}
		if rerr := src.Rename(srcName, dst, dstName); rerr != nil {
			return opResult(args[0], rerr, "rename")
		}
		return nil, nil
	})

	bi("create_symlink", 3, 3, nil, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
		c, err := viewOf(args[0], "create_symlink")
		if err != nil {
			return nil, err
		}
		name, ok1 := args[1].(string)
		target, ok2 := args[2].(string)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("create_symlink expects name and target strings")
		}
		if serr := c.CreateSymlink(name, target); serr != nil {
			return opResult(args[0], serr, "create_symlink")
		}
		return nil, nil
	})

	bi("read_symlink", 2, 2, nil, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
		c, err := viewOf(args[0], "read_symlink")
		if err != nil {
			return nil, err
		}
		name, ok := args[1].(string)
		if !ok {
			return nil, fmt.Errorf("read_symlink expects a name string")
		}
		child, serr := c.ReadSymlink(name)
		if serr != nil {
			return opResult(args[0], serr, "read_symlink")
		}
		return child, nil
	})

	bi("close", 1, 1, nil, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
		c, err := viewOf(args[0], "close")
		if err != nil {
			return nil, err
		}
		c.Close()
		if orig, ok := args[0].(*cap.Capability); ok {
			orig.Close()
		}
		return nil, nil
	})

	bi("create_pipe", 1, 1, nil, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
		c, ok := args[0].(*cap.Capability)
		if !ok || c.Kind() != cap.KindPipeFactory {
			return nil, fmt.Errorf("create_pipe expects a pipe factory")
		}
		r, w, err := c.CreatePipe()
		if err != nil {
			return asSyserror(err)
		}
		return []Value{r, w}, nil
	})

	// --- sandboxed execution (§2.3) ---

	bi("exec", 2, 2, []string{"stdin", "stdout", "stderr", "extras", "socket_factories", "workdir", "debug", "timeout_files"},
		func(it *Interp, args []Value, named map[string]Value) (Value, error) {
			return it.execBuiltin(args, named)
		})

	// --- strings, lists, numbers ---

	bi("strlen", 1, 1, nil, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
		s, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("strlen expects a string")
		}
		return float64(len(s)), nil
	})
	bi("to_string", 1, 1, nil, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
		return FormatValue(args[0]), nil
	})
	bi("split", 2, 2, nil, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
		s, ok1 := args[0].(string)
		sep, ok2 := args[1].(string)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("split expects two strings")
		}
		parts := strings.Split(s, sep)
		out := make([]Value, len(parts))
		for i, part := range parts {
			out[i] = part
		}
		return out, nil
	})
	bi("starts_with", 2, 2, nil, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
		s, ok1 := args[0].(string)
		prefix, ok2 := args[1].(string)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("starts_with expects two strings")
		}
		return strings.HasPrefix(s, prefix), nil
	})
	bi("contains", 2, 2, nil, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
		s, ok1 := args[0].(string)
		sub, ok2 := args[1].(string)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("contains expects two strings")
		}
		return strings.Contains(s, sub), nil
	})
	bi("length", 1, 1, nil, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
		l, ok := args[0].([]Value)
		if !ok {
			return nil, fmt.Errorf("length expects a list")
		}
		return float64(len(l)), nil
	})
	bi("nth", 2, 2, nil, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
		l, ok1 := args[0].([]Value)
		i, ok2 := args[1].(float64)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("nth expects a list and an index")
		}
		idx := int(i)
		if idx < 0 || idx >= len(l) {
			return SysError{Err: errno.EINVAL}, nil
		}
		return l[idx], nil
	})
	bi("rest", 1, 1, nil, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
		l, ok := args[0].([]Value)
		if !ok {
			return nil, fmt.Errorf("rest expects a list")
		}
		if len(l) == 0 {
			return []Value{}, nil
		}
		return append([]Value{}, l[1:]...), nil
	})
	bi("range", 1, 1, nil, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
		n, ok := args[0].(float64)
		if !ok || n < 0 {
			return nil, fmt.Errorf("range expects a non-negative number")
		}
		out := make([]Value, int(n))
		for i := range out {
			out[i] = float64(i)
		}
		return out, nil
	})
	bi("error", 1, 1, nil, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
		return nil, fmt.Errorf("script error: %s", FormatValue(args[0]))
	})

	return env
}

// viewOf extracts the capability a read-style operation should act
// through: the capability itself, or a sealed capability's attenuated
// view (§2.4.2).
func viewOf(v Value, op string) (*cap.Capability, error) {
	switch c := v.(type) {
	case *cap.Capability:
		return c, nil
	case *contract.Sealed:
		return c.View, nil
	}
	return nil, fmt.Errorf("%s expects a capability, got %s", op, FormatValue(v))
}

// opResult converts an operation failure into a SHILL value or error: on
// sealed capabilities a privilege failure is a contract violation (the
// body exceeded the polymorphic bound); otherwise it is a syserror
// value.
func opResult(orig Value, err error, op string) (Value, error) {
	if _, sealed := orig.(*contract.Sealed); sealed {
		return sealedFailure(err, op)
	}
	return asSyserror(err)
}

func sealedFailure(err error, op string) (Value, error) {
	var np *cap.NoPrivilegeError
	if errors.As(err, &np) {
		return nil, &contract.Violation{
			Contract: "forall-bounded capability",
			Blamed:   "function body",
			Message:  fmt.Sprintf("operation %q exceeds the polymorphic bound: %v", op, np.Missing),
		}
	}
	return asSyserror(err)
}

func createIn(dirV Value, nameV Value, isDir bool) (Value, error) {
	name, ok := nameV.(string)
	if !ok {
		return nil, fmt.Errorf("create expects a name string")
	}
	c, err := viewOf(dirV, "create")
	if err != nil {
		return nil, err
	}
	var child *cap.Capability
	var cerr error
	if isDir {
		child, cerr = c.CreateDir(name, 0o755)
	} else {
		child, cerr = c.CreateFile(name, 0o644)
	}
	if cerr != nil {
		return opResult(dirV, cerr, "create")
	}
	return child, nil
}

// execBuiltin implements exec(exe, argv, stdin=..., ...) (§2.3).
func (it *Interp) execBuiltin(args []Value, named map[string]Value) (Value, error) {
	exe, err := viewOf(args[0], "exec")
	if err != nil {
		return nil, err
	}
	argvList, ok := args[1].([]Value)
	if !ok {
		return nil, fmt.Errorf("exec expects a list of arguments")
	}
	sargs := make([]sandbox.Arg, 0, len(argvList))
	for _, a := range argvList {
		switch t := a.(type) {
		case string:
			sargs = append(sargs, sandbox.StrArg(t))
		case float64:
			sargs = append(sargs, sandbox.StrArg(FormatValue(t)))
		case *cap.Capability:
			sargs = append(sargs, sandbox.CapArg(t))
		case *contract.Sealed:
			sargs = append(sargs, sandbox.CapArg(t.View))
		default:
			return nil, fmt.Errorf("exec arguments must be strings or capabilities, got %s", FormatValue(a))
		}
	}
	opts := sandbox.Options{Trace: it.Trace, TraceParent: it.TraceParent}
	capOpt := func(key string) (*cap.Capability, error) {
		v, ok := named[key]
		if !ok || v == nil {
			return nil, nil
		}
		return viewOf(v, "exec "+key)
	}
	if opts.Stdin, err = capOpt("stdin"); err != nil {
		return nil, err
	}
	if opts.Stdout, err = capOpt("stdout"); err != nil {
		return nil, err
	}
	if opts.Stderr, err = capOpt("stderr"); err != nil {
		return nil, err
	}
	if opts.WorkDir, err = capOpt("workdir"); err != nil {
		return nil, err
	}
	if v, ok := named["extras"]; ok && v != nil {
		list, ok := v.([]Value)
		if !ok {
			return nil, fmt.Errorf("exec extras must be a list")
		}
		for _, e := range list {
			c, err := viewOf(e, "exec extras")
			if err != nil {
				return nil, err
			}
			opts.Extras = append(opts.Extras, c)
		}
	}
	if v, ok := named["socket_factories"]; ok && v != nil {
		list, ok := v.([]Value)
		if !ok {
			return nil, fmt.Errorf("exec socket_factories must be a list")
		}
		for _, e := range list {
			c, ok := e.(*cap.Capability)
			if !ok || c.Kind() != cap.KindSocketFactory {
				return nil, fmt.Errorf("exec socket_factories must contain socket factories")
			}
			opts.SocketFactories = append(opts.SocketFactories, c)
		}
	}
	if v, ok := named["debug"]; ok {
		if b, ok := v.(bool); ok {
			opts.Debug = b
		}
	}
	if v, ok := named["timeout_files"]; ok {
		if n, ok := v.(float64); ok {
			lim := kernel.DefaultUlimits()
			lim.MaxOpenFiles = int(n)
			opts.Limits = &lim
		}
	}
	res, err := sandbox.Exec(it.Runtime, exe, sargs, opts)
	if err != nil {
		return asSyserror(err)
	}
	return float64(res.ExitCode), nil
}

// bindAmbient adds the ambient-only builtins: minting capabilities from
// global names using the invoking user's ambient authority (§2.5).
func (it *Interp) bindAmbient(env *Env) {
	def := func(name string, v Value) {
		if err := env.Define(name, v); err != nil {
			panic(err)
		}
	}
	bi := func(name string, minA, maxA int,
		fn func(it *Interp, args []Value, named map[string]Value) (Value, error)) {
		def(name, &Builtin{Name: name, MinArgs: minA, MaxArgs: maxA, Fn: fn, interp: it})
	}

	open := func(path string, wantDir bool) (Value, error) {
		vn, err := it.resolveAmbient(path)
		if err != nil {
			return asSyserror(err)
		}
		if wantDir != vn.IsDir() {
			return asSyserror(errno.ENOTDIR)
		}
		// The capability has all privileges the invoking user is allowed
		// for this resource (§2.5); DAC still applies at operation time.
		origin := "open_file"
		if wantDir {
			origin = "open_dir"
		}
		return cap.NewForVnode(it.Runtime, vn, priv.FullGrant()).Announce(origin), nil
	}

	bi("open_file", 1, 1, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
		path, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("open_file expects a path string")
		}
		return open(path, false)
	})
	bi("open_dir", 1, 1, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
		path, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("open_dir expects a path string")
		}
		return open(path, true)
	})
	bi("pipe_factory", 0, 0, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
		return cap.NewPipeFactory(it.Runtime).Announce("pipe_factory"), nil
	})
	bi("socket_factory", 1, 1, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
		domain, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("socket_factory expects \"ip\" or \"unix\"")
		}
		var d netstack.Domain
		switch domain {
		case "ip":
			d = netstack.DomainIP
		case "unix":
			d = netstack.DomainUnix
		default:
			return nil, fmt.Errorf("socket_factory expects \"ip\" or \"unix\", got %q", domain)
		}
		return cap.NewSocketFactory(it.Runtime, d, priv.GrantOf(priv.AllSock)).Announce("socket_factory"), nil
	})

	// Standard streams: console-device capabilities.
	if con := it.consoleCap(); con != nil {
		def("stdin", con)
		def("stdout", con)
		def("stderr", con)
	}
}

// consoleCap returns a capability for the interpreter's console device
// (ConsolePath, defaulting to /dev/console) if the image has one.
func (it *Interp) consoleCap() *cap.Capability {
	path := it.ConsolePath
	if path == "" {
		path = "/dev/console"
	}
	vn, err := it.Runtime.Kernel().FS.Resolve(path)
	if err != nil {
		return nil
	}
	return cap.NewFile(it.Runtime, vn, priv.FullGrant())
}

// resolveAmbient walks an absolute or home-relative path with the
// runtime's ambient authority (DAC checks via the runtime process).
func (it *Interp) resolveAmbient(path string) (*vfs.Vnode, error) {
	if strings.HasPrefix(path, "~") {
		path = "/home/user" + strings.TrimPrefix(path, "~")
	}
	fd, err := it.Runtime.OpenAt(kernel.AtCWD, path, kernel.ORead|kernel.ONoFollow, 0)
	if err != nil {
		// Directories and write-protected files still resolve: fall back
		// to a stat-style walk.
		fd, err = it.Runtime.OpenAt(kernel.AtCWD, path, kernel.ODirectory|kernel.ORead, 0)
		if err != nil {
			st, serr := it.Runtime.FStatAt(kernel.AtCWD, path, true)
			_ = st
			if serr != nil {
				return nil, serr
			}
			return it.Runtime.Kernel().FS.Resolve(path)
		}
	}
	desc, derr := it.Runtime.FD(fd)
	if derr != nil {
		return nil, derr
	}
	vn := desc.Vnode()
	it.Runtime.Close(fd)
	if vn == nil {
		return nil, errno.EINVAL
	}
	return vn, nil
}

var _ = wallet.New // wallet is used by the stdlib modules in stdlib.go
