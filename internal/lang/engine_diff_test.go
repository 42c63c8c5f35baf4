package lang_test

// Differential tests between the tree-walk and compiled engines at the
// lang layer: the same source, run on identically-prepared worlds,
// must produce the same outcome (error text byte for byte), the same
// console bytes, the same filesystem, and the same export-call
// results. FuzzEngineDiff extends the comparison to arbitrary inputs:
//
//	go test ./internal/lang -fuzz=FuzzEngineDiff -fuzztime=60s
//
// The machine-level suite (shill/engine_diff_test.go) repeats the
// comparison over the case-study scripts and generator programs with
// denial sequences included; this file keeps the inner loop close to
// the interpreter so fuzz throughput stays high.

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/cap"
	"repro/internal/gen"
	"repro/internal/kernel"
	"repro/internal/lang"
	"repro/internal/priv"
	"repro/internal/vfs"
)

// diffWorld builds one world for one engine run: a console device, a
// small home tree, and a scratch directory for cap-module probes.
func diffWorld(t *testing.T) (*kernel.Kernel, *kernel.Proc) {
	t.Helper()
	k := kernel.New()
	k.InstallShillModule()
	t.Cleanup(k.Shutdown)
	for path, data := range map[string]string{
		"/dev/console":         "",
		"/home/user/a.txt":     "alpha\n",
		"/home/user/b.txt":     "beta\n",
		"/home/user/sub/c.txt": "gamma\n",
	} {
		if _, err := k.FS.WriteFile(path, []byte(data), 0o666, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.FS.MkdirAll("/sandbox", 0o777, 0, 0); err != nil {
		t.Fatal(err)
	}
	return k, k.NewProc(0, 0)
}

// snapshotAll captures the whole filesystem (console bytes included).
func snapshotAll(k *kernel.Kernel) map[string]string {
	snap := make(map[string]string)
	k.FS.Walk(k.FS.Root(), func(path string, v *vfs.Vnode) {
		switch {
		case v.IsDir():
			snap[path] = "dir"
		case v.Type() == vfs.TypeSymlink:
			target, _ := v.Readlink()
			snap[path] = "link:" + target
		default:
			snap[path] = "file:" + string(v.Bytes())
		}
	})
	return snap
}

// engineOutcome is everything one engine run observably produced.
type engineOutcome struct {
	result string // run/load error text, or per-export call results
	fs     map[string]string
}

// runOnEngine executes src on a fresh world under one engine. Ambient
// sources run through RunAmbient; cap sources load as a module and
// every export is called once with a /sandbox capability (falling back
// to a nullary call on arity errors, like FuzzEval).
func runOnEngine(t *testing.T, src string, engine lang.Engine) engineOutcome {
	t.Helper()
	k, proc := diffWorld(t)
	it := lang.NewInterp(proc, lang.MapLoader{"m.cap": src, "self.cap": src})
	it.SetEngine(engine)

	script, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("runOnEngine on unparseable source: %v", err)
	}
	var out strings.Builder
	if script.Dialect == lang.DialectAmbient {
		if err := it.RunAmbient("script", src); err != nil {
			fmt.Fprintf(&out, "run error: %v\n", err)
		}
	} else {
		m, err := it.LoadModule("m.cap", true)
		if err != nil {
			fmt.Fprintf(&out, "load error: %v\n", err)
		} else {
			scratch := k.FS.MustResolve("/sandbox")
			names := make([]string, 0, len(m.Exports))
			for name := range m.Exports {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				fn, ok := m.Exports[name].(interface {
					Call([]lang.Value, map[string]lang.Value) (lang.Value, error)
				})
				if !ok {
					fmt.Fprintf(&out, "%s = %s\n", name, lang.FormatValue(m.Exports[name]))
					continue
				}
				dcap := cap.NewForVnode(proc, scratch, priv.FullGrant())
				v, cerr := fn.Call([]lang.Value{dcap}, nil)
				if cerr != nil {
					fmt.Fprintf(&out, "%s(d) error: %v\n", name, cerr)
					v, cerr = fn.Call(nil, nil)
					if cerr != nil {
						fmt.Fprintf(&out, "%s() error: %v\n", name, cerr)
						continue
					}
				}
				fmt.Fprintf(&out, "%s -> %s\n", name, lang.FormatValue(v))
			}
		}
	}
	it.CloseLeftoverSockets()
	return engineOutcome{result: out.String(), fs: snapshotAll(k)}
}

// assertEngineMatch runs src under both engines and fails on any
// observable difference.
func assertEngineMatch(t *testing.T, src string) {
	t.Helper()
	tw := runOnEngine(t, src, lang.EngineTreeWalk)
	cp := runOnEngine(t, src, lang.EngineCompiled)
	if tw.result != cp.result {
		t.Fatalf("engines diverge on result:\ntree-walk:\n%s\ncompiled:\n%s\nscript:\n%s", tw.result, cp.result, src)
	}
	for path, was := range tw.fs {
		now, ok := cp.fs[path]
		if !ok {
			t.Fatalf("compiled engine missing %s\nscript:\n%s", path, src)
		}
		if now != was {
			t.Fatalf("engines diverge on %s:\ntree-walk: %q\ncompiled:  %q\nscript:\n%s", path, was, now, src)
		}
	}
	for path := range cp.fs {
		if _, ok := tw.fs[path]; !ok {
			t.Fatalf("compiled engine created %s\nscript:\n%s", path, src)
		}
	}
}

// TestEngineParity pins the compiled engine to the tree-walk engine on
// a corpus chosen for the places the two implementations differ most:
// scope materialization, flow-sensitive shadowing, closure capture in
// loops, constant folding, the ambient dialect restrictions, and every
// interpreter error message.
func TestEngineParity(t *testing.T) {
	cases := map[string]string{
		"arith-and-strings": `#lang shill/cap
provide probe : {} -> any;
probe = fun() { x = 1 + 2 * 3; s = "n=" + x; s ++ "!"; };
`,
		"const-fold-divzero": `#lang shill/cap
provide probe : {} -> any;
probe = fun() { 1 / 0; };
`,
		"plusplus-numbers": `#lang shill/cap
provide probe : {} -> any;
probe = fun() { 1 ++ 2; };
`,
		"unary-minus-string": `#lang shill/cap
provide probe : {} -> any;
probe = fun() { -"x"; };
`,
		"unbound": `#lang shill/cap
provide probe : {} -> any;
probe = fun() { nope; };
`,
		"shadow-later-bind": `#lang shill/cap
n = 10;
f = fun() { n; };
provide probe : {} -> any;
probe = fun() { a = f(); n2 = a + 1; n2; };
`,
		"flow-sensitive-visibility": `#lang shill/cap
x = 1;
provide probe : {} -> any;
probe = fun() { y = x + 1; x = 99; y; };
`,
		"dup-binding": `#lang shill/cap
x = 1;
x = 2;
`,
		"dup-in-function": `#lang shill/cap
provide probe : {} -> any;
probe = fun() { a = 1; a = 2; };
`,
		"if-scopes": `#lang shill/cap
provide probe : {} -> any;
probe = fun() {
  x = 1;
  if x < 2 then { y = x + 1; y * 10; } else { z = 0; z; }
};
`,
		"for-closure-capture": `#lang shill/cap
provide probe : {} -> any;
probe = fun() {
  fns = [];
  for i in range(3) { g = fun() { i; }; fns = fns ++ [g]; }
};
`,
		"for-frame-reuse": `#lang shill/cap
provide probe : {} -> any;
probe = fun() {
  acc = [];
  for i in range(4) { d = i * 2; e = d + 1; append_to = e; }
  acc;
};
`,
		"for-non-list": `#lang shill/cap
provide probe : {} -> any;
probe = fun() { for x in 42 { x; } };
`,
		"recursion": `#lang shill/cap
fact = fun(n) { if n <= 1 then { 1; } else { n * fact(n - 1); } };
provide probe : {} -> any;
probe = fun() { fact(10); };
`,
		"deep-recursion-limit": `#lang shill/cap
spin = fun(n) { spin(n + 1); };
provide probe : {} -> any;
probe = fun() { spin(0); };
`,
		"not-a-function": `#lang shill/cap
provide probe : {} -> any;
probe = fun() { x = 3; x(1); };
`,
		"named-args-on-closure": `#lang shill/cap
f = fun(a) { a; };
provide probe : {} -> any;
probe = fun() { f(a=1); };
`,
		"arity-error": `#lang shill/cap
f = fun(a, b) { a; };
provide probe : {} -> any;
probe = fun() { f(1); };
`,
		"dup-param": `#lang shill/cap
f = fun(a, a) { a; };
provide probe : {} -> any;
probe = fun() { f(1, 2); };
`,
		"anon-closure-name": `#lang shill/cap
provide probe : {} -> any;
probe = fun() { g = fun(x) { x(); }; g(3); };
`,
		"nested-require": `#lang shill/cap
provide probe : {} -> any;
probe = fun() { 1; };
f = fun() { require std/list; };
q = f();
`,
		"nested-provide": `#lang shill/cap
x = 1;
if x < 2 then { provide x : any; }
`,
		"provide-no-binding": `#lang shill/cap
provide ghost : any;
`,
		"require-cycle": `#lang shill/cap
require "self.cap";
probe = fun() { 1; };
provide probe : {} -> any;
`,
		"cap-fs-writes": `#lang shill/cap
provide probe : {d : any} -> any;
probe = fun(d) {
  w = create_file(d, "out.txt");
  write(w, "hello");
  read(w);
};
`,
		"cap-deny": `#lang shill/cap
provide probe : {d : dir(+lookup)} -> any;
probe = fun(d) { create_file(d, "nope.txt"); };
`,
		"ambient-basic": `#lang shill/ambient
h = open_dir("~");
msg = "files: " + length(contents(h));
write(stdout, msg);
`,
		"ambient-fun-def": `#lang shill/ambient
write(stdout, "before");
f = fun() { 1; };
`,
		"ambient-control-flow": `#lang shill/ambient
write(stdout, "pre");
if true then { 1; }
`,
		"ambient-dup": `#lang shill/ambient
x = 1;
x = 2;
`,
		"ambient-shadow-builtin": `#lang shill/ambient
open_file = 3;
`,
		"truthy-errors": `#lang shill/cap
provide probe : {} -> any;
probe = fun() { if 3 then { 1; } };
`,
		"and-or": `#lang shill/cap
provide probe : {} -> any;
probe = fun() { a = true && false; b = false || true; c = 1 < 2 && 2 < 3; a == false && b && c; };
`,
		"truthy-non-bool-and": `#lang shill/cap
provide probe : {} -> any;
probe = fun() { "x" && true; };
`,
		"list-fresh-alloc": `#lang shill/cap
provide probe : {} -> any;
probe = fun() {
  mk = fun() { [1, 2]; };
  a = mk();
  b = mk() ++ [3];
  length(a) + length(b);
};
`,
		"stdlib-require": `#lang shill/cap
require std/list;
provide probe : {} -> any;
probe = fun() { 1; };
`,
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) { assertEngineMatch(t, src) })
	}
}

// FuzzEngineDiff: any input that parses must behave identically under
// both engines.
func FuzzEngineDiff(f *testing.F) {
	f.Add("#lang shill/cap\nx = 1 + 2;\n")
	f.Add("#lang shill/ambient\nwrite(stdout, \"hi\");\n")
	f.Add("#lang shill/cap\nprovide p : {d : any} -> any;\np = fun(d) { for n in contents(d) { unlink(lookup(d, n)); } };\n")
	f.Add("#lang shill/cap\nf = fun(x) { f(x); };\nprovide p : {d : any} -> any;\np = fun(d) { f(d); };\n")
	f.Add("#lang shill/cap\nrequire std/list;\nprovide p : {} -> any;\np = fun() { 1; };\n")
	f.Add("#lang shill/cap\nx = 1;\nif x < 2 then { y = 3; } else { y = 4; }\n")
	for i := 0; i < 8; i++ {
		p := gen.New(int64(4000 + i)).Program()
		driver, module := p.Render(gen.RenderConfig{
			Root: "/gen/fuzz", Console: "/dev/console", PortBase: 24000,
		})
		f.Add(driver)
		f.Add(module)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if _, err := lang.Parse(src); err != nil {
			return
		}
		assertEngineMatch(t, src)
	})
}
