package lang

import (
	"fmt"
	"strings"

	"repro/internal/cap"
	"repro/internal/contract"
	"repro/internal/errno"
	"repro/internal/priv"
	"repro/internal/sandbox"
	"repro/internal/stdlib"
	"repro/internal/wallet"
)

// stdlibModule constructs one of SHILL's standard-library scripts
// (§3.1.4): shill/native, shill/io, shill/contracts, shill/filesys.
func (it *Interp) stdlibModule(name string) (*Module, error) {
	m := &Module{Name: name, Dialect: DialectCap, Exports: make(map[string]Value)}
	bi := func(n string, minA, maxA int, named []string,
		fn func(it *Interp, args []Value, named map[string]Value) (Value, error)) {
		m.Exports[n] = &Builtin{Name: n, MinArgs: minA, MaxArgs: maxA, NamedOK: named, Fn: fn, interp: it}
	}
	switch name {
	case "shill/native":
		bi("create_wallet", 0, 0, nil, func(it *Interp, _ []Value, _ map[string]Value) (Value, error) {
			return wallet.New(), nil
		})
		bi("populate_native_wallet", 5, 6, nil, populateNativeWallet)
		bi("pkg_native", 2, 2, nil, pkgNative)
		bi("wallet_put", 3, 3, nil, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
			w, ok := args[0].(*wallet.Wallet)
			key, ok2 := args[1].(string)
			if !ok || !ok2 {
				return nil, fmt.Errorf("wallet_put expects (wallet, key, capability)")
			}
			c, err := viewOf(args[2], "wallet_put")
			if err != nil {
				return nil, err
			}
			w.Put(key, c)
			return nil, nil
		})
		bi("wallet_get", 2, 2, nil, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
			w, ok := args[0].(*wallet.Wallet)
			key, ok2 := args[1].(string)
			if !ok || !ok2 {
				return nil, fmt.Errorf("wallet_get expects (wallet, key)")
			}
			caps := w.Get(key)
			out := make([]Value, len(caps))
			for i, c := range caps {
				out[i] = c
			}
			return out, nil
		})

	case "shill/io":
		bi("fprintf", 2, -1, nil, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
			out, err := viewOf(args[0], "fprintf")
			if err != nil {
				return nil, err
			}
			format, ok := args[1].(string)
			if !ok {
				return nil, fmt.Errorf("fprintf expects a format string")
			}
			text := sprintfValues(format, args[2:])
			if werr := out.Append([]byte(text)); werr != nil {
				return opResult(args[0], werr, "fprintf")
			}
			return nil, nil
		})
		bi("sprintf", 1, -1, nil, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
			format, ok := args[0].(string)
			if !ok {
				return nil, fmt.Errorf("sprintf expects a format string")
			}
			return sprintfValues(format, args[1:]), nil
		})

	case "shill/contracts":
		m.Exports["readonly"] = &contract.OrC{Branches: []contract.Contract{
			&contract.CapC{Mask: contract.MaskDir, Grant: stdlib.ReadOnlyDirGrant, Label: "readonly"},
			&contract.CapC{Mask: contract.MaskFile, Grant: stdlib.ReadOnlyFileGrant, Label: "readonly"},
		}}
		m.Exports["writeable"] = &contract.CapC{Mask: contract.MaskFile, Grant: stdlib.WriteableGrant, Label: "writeable"}
		m.Exports["writeonly"] = &contract.CapC{Mask: contract.MaskFile, Grant: stdlib.WriteOnlyGrant, Label: "writeonly"}
		m.Exports["appendonly"] = &contract.CapC{Mask: contract.MaskFile, Grant: stdlib.AppendOnlyGrant, Label: "appendonly"}
		m.Exports["executable"] = &contract.CapC{Mask: contract.MaskFile, Grant: stdlib.ExecGrant, Label: "executable"}
		m.Exports["full_privileges"] = &contract.CapC{
			Mask:  contract.MaskFile | contract.MaskDir | contract.MaskPipe,
			Grant: priv.FullGrant(), Label: "full_privileges",
		}
		m.Exports["tmp_private"] = &contract.CapC{Mask: contract.MaskDir, Grant: stdlib.TmpGrant, Label: "tmp_private"}

	case "shill/filesys":
		bi("resolve", 2, 2, nil, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
			relpath, ok := args[1].(string)
			if !ok {
				return nil, fmt.Errorf("resolve expects a path string")
			}
			return resolveRel(args[0], relpath)
		})
		bi("exists_in", 2, 2, nil, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
			dir, err := viewOf(args[0], "exists_in")
			if err != nil {
				return nil, err
			}
			name, ok := args[1].(string)
			if !ok {
				return nil, fmt.Errorf("exists_in expects a name string")
			}
			_, lerr := dir.Lookup(name)
			return lerr == nil, nil
		})
		bi("mkdirs", 2, 2, nil, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
			dir, err := viewOf(args[0], "mkdirs")
			if err != nil {
				return nil, err
			}
			relpath, ok := args[1].(string)
			if !ok {
				return nil, fmt.Errorf("mkdirs expects a path string")
			}
			cur := dir
			for _, comp := range strings.Split(relpath, "/") {
				if comp == "" {
					continue
				}
				next, lerr := cur.Lookup(comp)
				if lerr != nil {
					next, lerr = cur.CreateDir(comp, 0o755)
					if lerr != nil {
						return opResult(args[0], lerr, "mkdirs")
					}
				}
				cur = next
			}
			return cur, nil
		})

	case "shill/sockets":
		// The extension the paper sketches in §3.1.1: built-in socket
		// operations gated by socket-factory capabilities. A script can
		// manipulate sockets only through a factory it was handed, and
		// every operation checks the corresponding socket privilege.
		sockOf := func(v Value, op string) (*cap.Capability, error) {
			c, ok := v.(*cap.Capability)
			if !ok || c.Kind() != cap.KindSocket {
				return nil, fmt.Errorf("%s expects a socket capability, got %s", op, FormatValue(v))
			}
			return c, nil
		}
		bi("socket_connect", 2, 2, nil, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
			f, ok := args[0].(*cap.Capability)
			if !ok || f.Kind() != cap.KindSocketFactory {
				return nil, fmt.Errorf("socket_connect expects a socket factory")
			}
			addr, ok := args[1].(string)
			if !ok {
				return nil, fmt.Errorf("socket_connect expects an address string")
			}
			c, err := f.SocketConnect(addr)
			if err != nil {
				return asSyserror(err)
			}
			it.trackSocket(c)
			return c, nil
		})
		bi("socket_listen", 2, 2, nil, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
			f, ok := args[0].(*cap.Capability)
			if !ok || f.Kind() != cap.KindSocketFactory {
				return nil, fmt.Errorf("socket_listen expects a socket factory")
			}
			addr, ok := args[1].(string)
			if !ok {
				return nil, fmt.Errorf("socket_listen expects an address string")
			}
			c, err := f.SocketListen(addr)
			if err != nil {
				return asSyserror(err)
			}
			it.trackSocket(c)
			return c, nil
		})
		bi("socket_accept", 1, 1, nil, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
			l, err := sockOf(args[0], "socket_accept")
			if err != nil {
				return nil, err
			}
			c, aerr := l.SocketAccept()
			if aerr != nil {
				return asSyserror(aerr)
			}
			it.trackSocket(c)
			return c, nil
		})
		bi("socket_send", 2, 2, nil, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
			c, err := sockOf(args[0], "socket_send")
			if err != nil {
				return nil, err
			}
			data, ok := args[1].(string)
			if !ok {
				return nil, fmt.Errorf("socket_send expects a string")
			}
			if serr := c.SocketSend([]byte(data)); serr != nil {
				return asSyserror(serr)
			}
			return nil, nil
		})
		bi("socket_recv", 1, 1, nil, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
			c, err := sockOf(args[0], "socket_recv")
			if err != nil {
				return nil, err
			}
			data, rerr := c.SocketRecv()
			if rerr != nil {
				return asSyserror(rerr)
			}
			return string(data), nil
		})
		bi("socket_close", 1, 1, nil, func(it *Interp, args []Value, _ map[string]Value) (Value, error) {
			c, err := sockOf(args[0], "socket_close")
			if err != nil {
				return nil, err
			}
			c.SocketClose()
			return nil, nil
		})
		m.Exports["is_socket"] = predValue{&contract.Pred{Name: "is_socket", Fn: func(v Value) bool {
			c, ok := v.(*cap.Capability)
			return ok && c.Kind() == cap.KindSocket
		}}}

	default:
		return nil, fmt.Errorf("lang: unknown standard library module %q", name)
	}
	return m, nil
}

// sprintfValues formats with a restricted verb set (%s, %d, %v, %%).
func sprintfValues(format string, args []Value) string {
	var b strings.Builder
	argi := 0
	next := func() Value {
		if argi < len(args) {
			v := args[argi]
			argi++
			return v
		}
		return nil
	}
	for i := 0; i < len(format); i++ {
		c := format[i]
		if c != '%' || i+1 >= len(format) {
			b.WriteByte(c)
			continue
		}
		i++
		switch format[i] {
		case 's', 'v':
			b.WriteString(FormatValue(next()))
		case 'd':
			if n, ok := next().(float64); ok {
				fmt.Fprintf(&b, "%d", int64(n))
			} else {
				b.WriteString("NaN")
			}
		case '%':
			b.WriteByte('%')
		default:
			b.WriteByte('%')
			b.WriteByte(format[i])
		}
	}
	return b.String()
}

// resolveRel walks a multi-component relative path by repeated
// single-component lookups (keeping capability safety: no "..").
func resolveRel(dirV Value, relpath string) (Value, error) {
	if strings.HasPrefix(relpath, "/") {
		relpath = strings.TrimPrefix(relpath, "/")
	}
	cur := dirV
	for _, comp := range strings.Split(relpath, "/") {
		if comp == "" || comp == "." {
			continue
		}
		if comp == ".." {
			return SysError{Err: errno.EINVAL}, nil
		}
		switch c := cur.(type) {
		case *cap.Capability:
			next, err := c.Lookup(comp)
			if err != nil {
				return asSyserror(err)
			}
			cur = next
		case *contract.Sealed:
			view, err := c.View.Lookup(comp)
			if err != nil {
				return sealedFailure(err, "resolve")
			}
			inner, err := c.Inner.Lookup(comp)
			if err != nil {
				return asSyserror(err)
			}
			cur = c.Derive(inner, view)
		default:
			return nil, fmt.Errorf("resolve expects a directory capability")
		}
	}
	return cur, nil
}

// populateNativeWallet implements the trusted standard-library function
// of Figure 6: populate_native_wallet(wallet, root, path_spec,
// libpath_spec, pipe_factory [, known_deps]). Path specifications are
// colon-separated strings resolved against the root capability; the
// optional known_deps is a list of [name, path, ...] lists, defaulting
// to the table the paper's authors arrived at (§4.1).
func populateNativeWallet(it *Interp, args []Value, _ map[string]Value) (Value, error) {
	w, ok := args[0].(*wallet.Wallet)
	if !ok {
		return nil, fmt.Errorf("populate_native_wallet expects a wallet")
	}
	root := args[1]
	pathSpec, ok1 := args[2].(string)
	libSpec, ok2 := args[3].(string)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("populate_native_wallet expects path specification strings")
	}
	pf, ok := args[4].(*cap.Capability)
	if !ok || pf.Kind() != cap.KindPipeFactory {
		return nil, fmt.Errorf("populate_native_wallet expects a pipe factory")
	}

	addDirs := func(key, spec string, grant *priv.Grant) error {
		for _, p := range strings.Split(spec, ":") {
			if p == "" {
				continue
			}
			v, err := resolveRel(root, p)
			if err != nil {
				return err
			}
			dir, ok := v.(*cap.Capability)
			if !ok {
				continue // unresolved entries are skipped, like a missing $PATH dir
			}
			w.Put(key, dir.Restrict(grant, "native_wallet:"+key))
		}
		return nil
	}
	if err := addDirs(wallet.KeyPath, pathSpec, stdlib.PathDirGrant); err != nil {
		return nil, err
	}
	if err := addDirs(wallet.KeyLibPath, libSpec, stdlib.PathDirGrant); err != nil {
		return nil, err
	}
	w.Put(wallet.KeyPipeFactory, pf)

	// Known dependencies: explicit argument or the stock table.
	if len(args) >= 6 {
		deps, ok := args[5].([]Value)
		if !ok {
			return nil, fmt.Errorf("populate_native_wallet known_deps must be a list of [name, path...] lists")
		}
		for _, entry := range deps {
			row, ok := entry.([]Value)
			if !ok || len(row) < 2 {
				return nil, fmt.Errorf("known_deps entries must be [name, path...] lists")
			}
			name, ok := row[0].(string)
			if !ok {
				return nil, fmt.Errorf("known_deps entry name must be a string")
			}
			for _, pv := range row[1:] {
				path, ok := pv.(string)
				if !ok {
					return nil, fmt.Errorf("known_deps paths must be strings")
				}
				if err := putDep(w, root, name, path); err != nil {
					return nil, err
				}
			}
		}
	} else {
		for name, paths := range stdlib.KnownDeps {
			for _, path := range paths {
				if err := putDep(w, root, name, path); err != nil {
					return nil, err
				}
			}
		}
	}
	return nil, nil
}

func putDep(w *wallet.Wallet, root Value, name, path string) error {
	v, err := resolveRel(root, path)
	if err != nil {
		return err
	}
	if dep, ok := v.(*cap.Capability); ok {
		w.Put(wallet.DepPrefix+name, dep)
	}
	return nil
}

// pkgNative implements pkg_native(name, wallet) (§3.1.4): find the
// executable on the wallet's PATH, run ldd in a sandbox to discover its
// libraries, gather library and known-dependency capabilities, and
// return a contracted wrapper that encapsulates a call to exec.
func pkgNative(it *Interp, args []Value, _ map[string]Value) (Value, error) {
	name, ok := args[0].(string)
	if !ok {
		return nil, fmt.Errorf("pkg_native expects an executable name")
	}
	w, ok := args[1].(*wallet.Wallet)
	if !ok {
		return nil, fmt.Errorf("pkg_native expects a wallet")
	}
	if !w.IsNative() {
		return nil, fmt.Errorf("pkg_native expects a native wallet (PATH, LD_LIBRARY_PATH, pipe-factory)")
	}
	exe, err := w.FindExecutable(name)
	if err != nil {
		return asSyserror(fmt.Errorf("pkg_native: %s: %w", name, err))
	}

	libNames, err := runLdd(it, w, exe)
	if err != nil {
		return asSyserror(err)
	}
	var extras []*cap.Capability
	for _, lib := range libNames {
		c, lerr := w.FindLibrary(lib)
		if lerr != nil {
			return asSyserror(fmt.Errorf("pkg_native: library %s: %w", lib, lerr))
		}
		extras = append(extras, c.Restrict(stdlib.ReadOnlyFileGrant, "pkg_native:lib"))
	}
	extras = append(extras, w.KnownDeps(name)...)

	wrapper := &Builtin{
		Name:    "native:" + name,
		MinArgs: 1, MaxArgs: 1,
		NamedOK: []string{"stdin", "stdout", "stderr", "extras", "socket_factories", "workdir", "debug"},
		interp:  it,
		Fn: func(it *Interp, wargs []Value, named map[string]Value) (Value, error) {
			argv, ok := wargs[0].([]Value)
			if !ok {
				return nil, fmt.Errorf("%s expects an argument list", name)
			}
			merged := make(map[string]Value, len(named)+1)
			for k, v := range named {
				merged[k] = v
			}
			extraVals := make([]Value, 0, len(extras))
			for _, e := range extras {
				extraVals = append(extraVals, e)
			}
			if user, ok := merged["extras"].([]Value); ok {
				extraVals = append(extraVals, user...)
			}
			merged["extras"] = extraVals
			return it.execBuiltin([]Value{exe, argv}, merged)
		},
	}

	// The wrapper's contract — checked once per sandbox, which the
	// paper's profile shows dominating contract-checking time (§4.2).
	fileOrPipe := &contract.CapC{Mask: contract.MaskFile | contract.MaskPipe}
	wrapC := &contract.FuncC{
		Params: []contract.Param{{Name: "args", C: contract.IsList}},
		Named: map[string]contract.Contract{
			"stdin": fileOrPipe, "stdout": fileOrPipe, "stderr": fileOrPipe,
			"extras": contract.IsList, "socket_factories": contract.IsList,
			"workdir": contract.Any, "debug": contract.IsBool,
		},
		Result: contract.IsNum,
	}
	wrapped, err := contract.Apply(wrapC, wrapper, contract.Blame{Pos: "pkg_native", Neg: "caller of pkg_native"})
	if err != nil {
		return nil, err
	}
	return wrapped, nil
}

// runLdd executes ldd in its own sandbox and parses the library names
// from its output. This is the extra sandbox the paper counts for
// pkg-native (Download creates two sandboxes: "one for pkg-native and
// one for the executable, curl", §4.2).
func runLdd(it *Interp, w *wallet.Wallet, exe *cap.Capability) ([]string, error) {
	lddExe, err := w.FindExecutable("ldd")
	if err != nil {
		return nil, fmt.Errorf("pkg_native: ldd not found on wallet PATH: %w", err)
	}
	pf := w.PipeFactory()
	if pf == nil {
		return nil, fmt.Errorf("pkg_native: wallet has no pipe factory")
	}
	r, wEnd, err := pf.CreatePipe()
	if err != nil {
		return nil, err
	}
	var extras []*cap.Capability
	for _, d := range w.Get(wallet.KeyLibPath) {
		extras = append(extras, d)
	}
	done := make(chan error, 1)
	var out []byte
	go func() {
		data, rerr := r.Read()
		for rerr == nil && len(data) > 0 {
			out = append(out, data...)
			data, rerr = r.Read()
		}
		done <- rerr
	}()
	// ldd reads the executable by path; run it in its own sandbox with
	// the exe as a capability argument. This is the sandbox the paper
	// counts for pkg-native itself.
	res, execErr := sandbox.Exec(it.Runtime, lddExe,
		[]sandbox.Arg{sandbox.CapArg(exe)},
		sandbox.Options{Stdout: wEnd, Extras: extras, Trace: it.Trace, TraceParent: it.TraceParent})
	wEnd.Close()
	if err := <-done; err != nil {
		return nil, err
	}
	if execErr != nil {
		return nil, fmt.Errorf("pkg_native: ldd failed: %w", execErr)
	}
	if res.ExitCode != 0 {
		return nil, fmt.Errorf("pkg_native: ldd exited with status %d", res.ExitCode)
	}
	var libs []string
	for _, line := range strings.Split(string(out), "\n") {
		line = strings.TrimSpace(line)
		if i := strings.Index(line, " => "); i > 0 {
			libs = append(libs, strings.TrimSpace(line[:i]))
		}
	}
	return libs, nil
}
