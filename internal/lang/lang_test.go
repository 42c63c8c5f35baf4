package lang

import (
	"strings"
	"testing"

	"repro/internal/kernel"
)

// --- lexer ---

func TestLexBasics(t *testing.T) {
	toks, err := Lex(`x = fun(a) { append(out, "hi\n"); } # comment`)
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tok := range toks {
		if tok.Kind == TEOF {
			break
		}
		texts = append(texts, tok.Text)
	}
	want := []string{"x", "=", "fun", "(", "a", ")", "{", "append", "(", "out", ",", "hi\n", ")", ";", "}"}
	if strings.Join(texts, "|") != strings.Join(want, "|") {
		t.Fatalf("tokens = %v", texts)
	}
}

func TestLexMultiCharOperators(t *testing.T) {
	toks, err := Lex(`a -> b == c != d <= e >= f && g || h \/ i ++ j`)
	if err != nil {
		t.Fatal(err)
	}
	var ops []string
	for _, tok := range toks {
		if tok.Kind == TPunct {
			ops = append(ops, tok.Text)
		}
	}
	want := []string{"->", "==", "!=", "<=", ">=", "&&", "||", "\\/", "++"}
	if strings.Join(ops, " ") != strings.Join(want, " ") {
		t.Fatalf("operators = %v", ops)
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex(`"unterminated`); err == nil {
		t.Error("unterminated string accepted")
	}
	if _, err := Lex("a @ b"); err == nil {
		t.Error("illegal character accepted")
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := Lex("a\n  b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Line != 1 || toks[1].Line != 2 || toks[1].Col != 3 {
		t.Fatalf("positions: %+v", toks[:2])
	}
}

// --- parser ---

func TestSplitLang(t *testing.T) {
	d, body, err := SplitLang("#lang shill/ambient\nx = 1;\n")
	if err != nil || d != DialectAmbient || !strings.Contains(body, "x = 1") {
		t.Fatalf("SplitLang = %v, %q, %v", d, body, err)
	}
	d, _, err = SplitLang("#lang shill/cap\n")
	if err != nil || d != DialectCap {
		t.Fatal("cap dialect")
	}
	if _, _, err := SplitLang("#lang python\n"); err == nil {
		t.Fatal("unknown dialect accepted")
	}
}

func TestParseProvideContract(t *testing.T) {
	src := `#lang shill/cap
provide f : {a : is_file, b : dir(+lookup with {+read}, +contents) \/ file(+path)} -> void;
f = fun(a, b) { };
`
	script, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(script.Stmts) != 2 {
		t.Fatalf("stmts = %d", len(script.Stmts))
	}
	pr, ok := script.Stmts[0].(*ProvideStmt)
	if !ok || pr.Name != "f" || pr.Contract == nil {
		t.Fatalf("provide parse: %+v", script.Stmts[0])
	}
	fc, ok := pr.Contract.(*CFunc)
	if !ok || len(fc.Params) != 2 {
		t.Fatalf("contract shape: %+v", pr.Contract)
	}
	or, ok := fc.Params[1].C.(*COr)
	if !ok || len(or.Branches) != 2 {
		t.Fatalf("or contract: %+v", fc.Params[1].C)
	}
	cc := or.Branches[0].(*CCap)
	if cc.Kind != "dir" || len(cc.Privs) != 2 || cc.Privs[0].Name != "lookup" || len(cc.Privs[0].With) != 1 {
		t.Fatalf("cap contract: %+v", cc)
	}
}

func TestParseForall(t *testing.T) {
	src := `#lang shill/cap
provide find : forall X with {+lookup, +contents} . {cur : X, f : X -> is_bool} -> void;
find = fun(cur, f) { };
`
	script, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	fa, ok := script.Stmts[0].(*ProvideStmt).Contract.(*CForall)
	if !ok || fa.Var != "X" || len(fa.Bound) != 2 {
		t.Fatalf("forall parse: %+v", script.Stmts[0])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"x = ;",
		"if x { }",                   // missing then
		"for x { }",                  // missing in
		"provide : c;",               // missing name
		"f(a=1, b);",                 // positional after named
		"x = fun(a { };",             // malformed params
		"provide f : {a : is_file};", // function contract without ->
	}
	for _, src := range bad {
		if _, err := Parse("#lang shill/cap\n" + src); err == nil {
			t.Errorf("parsed bad input %q", src)
		}
	}
}

// --- evaluator ---

func testInterp(t *testing.T, scripts MapLoader) *Interp {
	t.Helper()
	k := kernel.New()
	k.InstallShillModule()
	t.Cleanup(k.Shutdown)
	if _, err := k.FS.MkdirAll("/home/user", 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	p := k.NewProc(0, 0)
	if scripts == nil {
		scripts = MapLoader{}
	}
	return NewInterp(p, scripts)
}

// evalInModule runs statements in a cap module and returns the exported
// result of calling the provided probe function.
func runProbe(t *testing.T, body string) (Value, error) {
	t.Helper()
	it := testInterp(t, MapLoader{"m.cap": "#lang shill/cap\nprovide probe : {} -> any;\nprobe = fun() {\n" + body + "\n};\n"})
	m, err := it.LoadModule("m.cap", true)
	if err != nil {
		return nil, err
	}
	fn := m.Exports["probe"].(interface {
		Call([]Value, map[string]Value) (Value, error)
	})
	return fn.Call(nil, nil)
}

func TestArithmeticAndStrings(t *testing.T) {
	cases := []struct {
		body string
		want Value
	}{
		{"1 + 2 * 3;", 7.0},
		{"(1 + 2) * 3;", 9.0},
		{"10 / 4;", 2.5},
		{"7 - 10;", -3.0},
		{`"a" + "b";`, "ab"},
		{`"n=" + 3;`, "n=3"},
		{"1 < 2;", true},
		{"2 <= 2;", true},
		{`"x" == "x";`, true},
		{"[1, 2] == [1, 2];", true},
		{"[1] ++ [2, 3] == [1, 2, 3];", true},
		{"!false;", true},
		{"true && false;", false},
		{"false || true;", true},
		{"-5 + 5;", 0.0},
		{`strlen("abc");`, 3.0},
		{`contains("hello", "ell");`, true},
		{`starts_with("hello", "he");`, true},
		{`nth(split("a:b:c", ":"), 1);`, "b"},
		{"length(range(4));", 4.0},
		{"to_string(42);", "42"},
	}
	for _, c := range cases {
		got, err := runProbe(t, c.body)
		if err != nil {
			t.Errorf("%q: %v", c.body, err)
			continue
		}
		if !valueEqual(got, c.want) {
			t.Errorf("%q = %v, want %v", c.body, got, c.want)
		}
	}
}

func TestDivisionByZero(t *testing.T) {
	if _, err := runProbe(t, "1 / 0;"); err == nil {
		t.Fatal("division by zero succeeded")
	}
}

func TestImmutableBindings(t *testing.T) {
	if _, err := runProbe(t, "x = 1;\nx = 2;\nx;"); err == nil ||
		!strings.Contains(err.Error(), "immutable") {
		t.Fatalf("rebinding allowed: %v", err)
	}
	// Shadowing in an inner scope is fine.
	got, err := runProbe(t, "x = 1;\nif true then { x = 2; }\nx;")
	if err != nil || got != 1.0 {
		t.Fatalf("shadowing: %v, %v", got, err)
	}
}

func TestShortCircuit(t *testing.T) {
	// The right operand would fail if evaluated.
	got, err := runProbe(t, "false && (1 / 0 == 0);")
	if err != nil || got != false {
		t.Fatalf("&& short circuit: %v, %v", got, err)
	}
	got, err = runProbe(t, "true || (1 / 0 == 0);")
	if err != nil || got != true {
		t.Fatalf("|| short circuit: %v, %v", got, err)
	}
}

func TestStrictBooleans(t *testing.T) {
	if _, err := runProbe(t, "if 1 then { 2; }"); err == nil {
		t.Fatal("non-boolean condition accepted")
	}
	if _, err := runProbe(t, "1 && true;"); err == nil {
		t.Fatal("non-boolean && accepted")
	}
}

func TestForLoopAndClosures(t *testing.T) {
	got, err := runProbe(t, `
total = fun(xs) {
  sum = fun(xs, i, acc) {
    if i == length(xs) then { acc; }
    else { sum(xs, i + 1, acc + nth(xs, i)); }
  };
  sum(xs, 0, 0);
};
total([1, 2, 3, 4]);`)
	if err != nil || got != 10.0 {
		t.Fatalf("recursion: %v, %v", got, err)
	}
}

func TestHigherOrderFunctions(t *testing.T) {
	got, err := runProbe(t, `
apply_twice = fun(f, x) { f(f(x)); };
apply_twice(fun(n) { n * 3; }, 2);`)
	if err != nil || got != 18.0 {
		t.Fatalf("higher order: %v, %v", got, err)
	}
}

func TestSyserrorValues(t *testing.T) {
	got, err := runProbe(t, "is_syserror(nth([1], 5));")
	if err != nil || got != true {
		t.Fatalf("syserror value: %v, %v", got, err)
	}
}

func TestModuleCaching(t *testing.T) {
	it := testInterp(t, MapLoader{
		"a.cap": "#lang shill/cap\nprovide f : {} -> any;\nf = fun() { 1; };\n",
	})
	m1, err := it.LoadModule("a.cap", true)
	if err != nil {
		t.Fatal(err)
	}
	m2, _ := it.LoadModule("a.cap", true)
	if m1 != m2 {
		t.Fatal("module loaded twice")
	}
}

func TestRequireChainAndContractWrap(t *testing.T) {
	it := testInterp(t, MapLoader{
		"lib.cap": `#lang shill/cap
provide double : {n : is_num} -> is_num;
double = fun(n) { n * 2; };
`,
		"main.cap": `#lang shill/cap
require "lib.cap";
provide go : {} -> is_num;
go = fun() { double(21); };
`,
	})
	m, err := it.LoadModule("main.cap", true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Exports["go"].(interface {
		Call([]Value, map[string]Value) (Value, error)
	}).Call(nil, nil)
	if err != nil || got != 42.0 {
		t.Fatalf("go() = %v, %v", got, err)
	}
	// Calling double with a string through its contract fails with blame.
	it2 := testInterp(t, MapLoader{
		"lib.cap": `#lang shill/cap
provide double : {n : is_num} -> is_num;
double = fun(n) { n * 2; };
`,
		"main.cap": `#lang shill/cap
require "lib.cap";
provide go : {} -> is_num;
go = fun() { double("oops"); };
`,
	})
	m2, err := it2.LoadModule("main.cap", true)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m2.Exports["go"].(interface {
		Call([]Value, map[string]Value) (Value, error)
	}).Call(nil, nil)
	if err == nil || !strings.Contains(err.Error(), "blaming") {
		t.Fatalf("contract violation: %v", err)
	}
}

func TestUserDefinedPredicateContract(t *testing.T) {
	it := testInterp(t, MapLoader{
		"m.cap": `#lang shill/cap
positive = fun(n) { is_num(n) && n > 0; };
provide f : {n : positive} -> is_num;
f = fun(n) { n; };
`,
	})
	m, err := it.LoadModule("m.cap", true)
	if err != nil {
		t.Fatal(err)
	}
	call := m.Exports["f"].(interface {
		Call([]Value, map[string]Value) (Value, error)
	})
	if _, err := call.Call([]Value{3.0}, nil); err != nil {
		t.Fatalf("positive arg rejected: %v", err)
	}
	if _, err := call.Call([]Value{-3.0}, nil); err == nil {
		t.Fatal("negative arg accepted by user predicate")
	}
}

func TestStdlibIO(t *testing.T) {
	it := testInterp(t, MapLoader{
		"m.cap": `#lang shill/cap
require shill/io;
provide f : {} -> is_string;
f = fun() { sprintf("x=%d y=%s z=%v", 4, "s", true); };
`,
	})
	m, err := it.LoadModule("m.cap", true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Exports["f"].(interface {
		Call([]Value, map[string]Value) (Value, error)
	}).Call(nil, nil)
	if err != nil || got != "x=4 y=s z=true" {
		t.Fatalf("sprintf = %v, %v", got, err)
	}
}

func TestUnknownStdlibModule(t *testing.T) {
	it := testInterp(t, nil)
	if _, err := it.LoadModule("shill/none", false); err == nil {
		t.Fatal("unknown stdlib module loaded")
	}
}

func TestAmbientOnlyBuiltinsHiddenFromCap(t *testing.T) {
	it := testInterp(t, MapLoader{
		"m.cap": `#lang shill/cap
provide f : {} -> any;
f = fun() { pipe_factory(); };
`,
	})
	m, err := it.LoadModule("m.cap", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Exports["f"].(interface {
		Call([]Value, map[string]Value) (Value, error)
	}).Call(nil, nil); err == nil {
		t.Fatal("cap script reached an ambient builtin")
	}
}

func TestContractEvalErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"unknown privilege", `provide f : {x : file(+frobnicate)} -> void;`},
		{"with on non-deriving", `provide f : {x : dir(+read with {+stat})} -> void;`},
		{"unknown with-reference", `provide f : {x : dir(+lookup with nonsense_ref)} -> void;`},
		{"unbound contract name", `provide f : {x : no_such_contract} -> void;`},
		{"non-contract binding", `c = 42;
provide f : {x : c} -> void;`},
		{"forall over non-function", `provide f : forall X with {+lookup} . X;`},
	}
	for _, c := range cases {
		it := testInterp(t, MapLoader{"m.cap": "#lang shill/cap\n" + c.src + "\nf = fun(x) { };\n"})
		if _, err := it.LoadModule("m.cap", true); err == nil {
			t.Errorf("%s: module loaded", c.name)
		}
	}
}

func TestProvideUnknownBinding(t *testing.T) {
	it := testInterp(t, MapLoader{"m.cap": "#lang shill/cap\nprovide ghost : {} -> void;\n"})
	if _, err := it.LoadModule("m.cap", true); err == nil ||
		!strings.Contains(err.Error(), "no such binding") {
		t.Fatalf("provide of missing binding: %v", err)
	}
}

func TestRequireCollision(t *testing.T) {
	it := testInterp(t, MapLoader{
		"a.cap":    "#lang shill/cap\nprovide f : {} -> void;\nf = fun() { };\n",
		"b.cap":    "#lang shill/cap\nprovide f : {} -> void;\nf = fun() { };\n",
		"main.cap": "#lang shill/cap\nrequire \"a.cap\";\nrequire \"b.cap\";\nprovide g : {} -> void;\ng = fun() { };\n",
	})
	if _, err := it.LoadModule("main.cap", true); err == nil ||
		!strings.Contains(err.Error(), "immutable") {
		t.Fatalf("colliding imports: %v", err)
	}
}

func TestFormatValue(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{nil, "void"},
		{true, "true"},
		{3.0, "3"},
		{3.5, "3.5"},
		{"s", "s"},
		{[]Value{1.0, "a"}, "[1, a]"},
	}
	for _, c := range cases {
		if got := FormatValue(c.v); got != c.want {
			t.Errorf("FormatValue(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}
