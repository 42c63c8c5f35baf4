// Compiled execution path: a resolver/compiler pass that turns a
// parsed script into a flattened, pre-resolved form — slot-indexed
// environments instead of map lookups, interned fallback identifiers,
// constant-folded literals, and coarser cancellation polls (loop
// back-edges and closure calls instead of every statement). The
// compiled form is executed by exec.go; both engines stay live behind
// Interp.SetEngine, and the differential conformance suites hold them
// to byte-identical observable behaviour.
//
// A CompiledProgram is interpreter-independent: compiled code closes
// over static data only (slot references, constants, sub-code), while
// all run state — the interpreter, the base environment, the fallback
// cells — travels through the frame. That is what makes a
// content-hash-keyed CompileCache shareable across sessions and
// tenants on one machine.
package lang

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"sync/atomic"
)

// Engine selects the execution path of an Interp.
type Engine uint8

// Engines. EngineTreeWalk is the original AST interpreter;
// EngineCompiled is the slot-resolved compiled path.
const (
	EngineTreeWalk Engine = iota
	EngineCompiled
)

func (e Engine) String() string {
	switch e {
	case EngineTreeWalk:
		return "tree-walk"
	case EngineCompiled:
		return "compiled"
	}
	return "unknown"
}

// SetEngine selects the execution path for subsequent RunAmbient and
// LoadModule calls.
func (it *Interp) SetEngine(e Engine) { it.engine = e }

// EngineKind reports the interpreter's selected execution path.
func (it *Interp) EngineKind() Engine { return it.engine }

// --- compiled program ---

// topKind classifies one top-level operation of a compiled script.
type topKind uint8

const (
	topStmt       topKind = iota // a compiled bind or expression statement
	topRequire                   // a module import
	topFunBind                   // ambient dialect: a function definition (error at reach time)
	topDisallowed                // ambient dialect: any other disallowed statement
)

// topOp is one top-level operation. Ambient-dialect restrictions
// compile into error ops rather than compile-time errors so they fire
// in execution order, exactly when the tree-walk engine reaches the
// offending statement (console output written before it must survive).
type topOp struct {
	kind   topKind
	line   int
	module string // topRequire: module name
	isFile bool   // topRequire: file vs stdlib module
	code   code   // topStmt: the compiled statement
}

// provideRef is one collected provide of a capability-safe script.
type provideRef struct {
	name     string
	contract CExpr
}

// CompiledProgram is a parsed and compiled script, ready to execute on
// any interpreter.
type CompiledProgram struct {
	dialect   Dialect
	nslots    int            // top-scope slot count
	topNames  map[string]int // top-scope name → slot
	cellNames []string       // interned fallback identifiers
	top       []topOp
	provides  []provideRef
}

// Dialect reports the compiled script's dialect.
func (p *CompiledProgram) Dialect() Dialect { return p.dialect }

// Compile parses and compiles a script. The only errors are parse
// errors: every static restriction (ambient dialect rules, duplicate
// bindings, nested require/provide) is deferred to execution so the
// compiled engine reports it at the same point in the run as the
// tree-walk engine.
func Compile(src string) (*CompiledProgram, error) {
	script, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return compileScript(script), nil
}

// compileSource compiles through the interpreter's cache when one is
// installed. The bool reports a cache hit (always false without a
// cache), feeding the compile span's hit/miss detail and the server's
// shilld_compile_seconds{cache=...} histogram.
func (it *Interp) compileSource(src string) (*CompiledProgram, bool, error) {
	if c := it.CompileCache; c != nil {
		return c.get(src)
	}
	prog, err := Compile(src)
	return prog, false, err
}

// --- compile cache ---

// CompileCacheLimit is the most programs a CompileCache holds, however
// many distinct sources a long-lived machine sees (shilld splices each
// request's args into the source text, so every distinct arg vector is
// a new source). The cache keeps two generations of half that size.
const (
	CompileCacheLimit = 512
	compileCacheGen   = CompileCacheLimit / 2
)

// CompileCache memoizes compiled programs by content hash. It is safe
// for concurrent use; keying by the script text itself (not its name)
// means a tenant updating a script under the same name can never
// execute a stale compilation.
//
// The cache is bounded. New entries go into the current generation; a
// hit in the previous generation moves the entry forward; when the
// current generation is full it becomes the previous one and the old
// previous generation is dropped. Scripts in steady use therefore stay
// cached while one-off sources age out.
type CompileCache struct {
	mu       sync.Mutex
	cur, old map[[32]byte]*cacheEntry
	hits     atomic.Uint64
	misses   atomic.Uint64
}

type cacheEntry struct {
	prog *CompiledProgram
	err  error
}

// NewCompileCache returns an empty cache.
func NewCompileCache() *CompileCache { return &CompileCache{} }

// Get returns the compiled form of src, compiling on first sight.
// Parse errors are cached too, so a repeatedly-submitted broken script
// does not pay a re-parse per request.
func (c *CompileCache) Get(src string) (*CompiledProgram, error) {
	prog, _, err := c.get(src)
	return prog, err
}

// get is Get plus a hit report, so the tracing layer can label the
// compile span hit/miss without racing on the global counters. The
// compile itself runs outside the lock; when two callers miss on the
// same source at once, the first to store wins and both return it.
func (c *CompileCache) get(src string) (*CompiledProgram, bool, error) {
	key := sha256.Sum256([]byte(src))
	c.mu.Lock()
	e := c.lookup(key)
	c.mu.Unlock()
	if e != nil {
		c.hits.Add(1)
		return e.prog, true, e.err
	}
	c.misses.Add(1)
	prog, err := Compile(src)
	c.mu.Lock()
	if e = c.lookup(key); e == nil {
		e = &cacheEntry{prog: prog, err: err}
		c.store(key, e)
	}
	c.mu.Unlock()
	return e.prog, false, e.err
}

// lookup finds key in either generation, moving a previous-generation
// entry into the current one. c.mu must be held.
func (c *CompileCache) lookup(key [32]byte) *cacheEntry {
	if e, ok := c.cur[key]; ok {
		return e
	}
	e, ok := c.old[key]
	if !ok {
		return nil
	}
	delete(c.old, key)
	c.store(key, e)
	return e
}

// store adds an entry to the current generation, first retiring it
// when full. c.mu must be held.
func (c *CompileCache) store(key [32]byte, e *cacheEntry) {
	if c.cur == nil || len(c.cur) >= compileCacheGen {
		c.old, c.cur = c.cur, map[[32]byte]*cacheEntry{}
	}
	c.cur[key] = e
}

// Len reports how many compiled programs the cache holds; it never
// exceeds CompileCacheLimit.
func (c *CompileCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cur) + len(c.old)
}

// Stats reports cache hits and misses.
func (c *CompileCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// --- compiler ---

// cscope is a compile-time scope: the complete set of names the
// corresponding runtime frame will ever bind. Name sets are collected
// before bodies are compiled, so closures can reference bindings made
// later in the same scope (runtime set-checks give the tree-walk
// engine's flow-sensitive visibility).
type cscope struct {
	parent *cscope
	names  map[string]int
	n      int
	mat    bool // materializes a runtime frame (block scopes with no binds do not)
	top    bool // the script's top scope, backed by the run's base environment
}

func (sc *cscope) define(name string) int {
	if i, ok := sc.names[name]; ok {
		return i
	}
	i := sc.n
	sc.names[name] = i
	sc.n++
	return i
}

// compiler holds cross-scope compile state.
type compiler struct {
	cells  map[string]int // interned fallback identifiers
	names  []string
	sawFun bool // a FunLit was compiled (loop-frame freshness)
}

func (c *compiler) cell(name string) int {
	if i, ok := c.cells[name]; ok {
		return i
	}
	i := len(c.names)
	c.cells[name] = i
	c.names = append(c.names, name)
	return i
}

// blockScope collects the names a statement block binds. seed names
// (loop variable, parameters) get the first slots.
func blockScope(parent *cscope, stmts []Stmt, seed ...string) *cscope {
	sc := &cscope{parent: parent, names: make(map[string]int)}
	for _, n := range seed {
		sc.define(n)
	}
	for _, st := range stmts {
		if b, ok := st.(*BindStmt); ok {
			sc.define(b.Name)
		}
	}
	sc.mat = sc.n > 0
	return sc
}

func compileScript(s *Script) *CompiledProgram {
	c := &compiler{cells: make(map[string]int)}
	top := &cscope{names: make(map[string]int), mat: true, top: true}
	for _, st := range s.Stmts {
		if b, ok := st.(*BindStmt); ok {
			top.define(b.Name)
		}
	}
	prog := &CompiledProgram{dialect: s.Dialect}
	for _, st := range s.Stmts {
		switch t := st.(type) {
		case *RequireStmt:
			prog.top = append(prog.top, topOp{kind: topRequire, line: t.Pos(), module: t.Module, isFile: t.IsFile})
		case *ProvideStmt:
			if s.Dialect == DialectCap {
				// Collected, not executed: provides resolve after the whole
				// body has run, wherever they appear in the file.
				prog.provides = append(prog.provides, provideRef{name: t.Name, contract: t.Contract})
			} else {
				prog.top = append(prog.top, topOp{kind: topDisallowed, line: t.Pos()})
			}
		case *BindStmt:
			if s.Dialect == DialectAmbient {
				if _, isFun := t.Expr.(*FunLit); isFun {
					prog.top = append(prog.top, topOp{kind: topFunBind, line: t.Pos()})
					continue
				}
			}
			prog.top = append(prog.top, topOp{kind: topStmt, line: t.Pos(), code: c.compileStmt(t, top)})
		case *ExprStmt:
			prog.top = append(prog.top, topOp{kind: topStmt, line: t.Pos(), code: c.compileStmt(t, top)})
		default: // IfStmt, ForStmt
			if s.Dialect == DialectAmbient {
				prog.top = append(prog.top, topOp{kind: topDisallowed, line: st.Pos()})
			} else {
				prog.top = append(prog.top, topOp{kind: topStmt, line: st.Pos(), code: c.compileStmt(st, top)})
			}
		}
	}
	prog.nslots = top.n
	prog.topNames = top.names
	prog.cellNames = c.names
	return prog
}

// compileStmt compiles one statement. The returned code reproduces the
// tree-walk engine's error text and error ordering exactly; only the
// cancellation poll points are coarser (loop back-edges and calls).
func (c *compiler) compileStmt(s Stmt, sc *cscope) code {
	switch st := s.(type) {
	case *BindStmt:
		return c.compileBind(st, sc)
	case *ExprStmt:
		return c.compileExpr(st.Expr, sc)
	case *IfStmt:
		return c.compileIf(st, sc)
	case *ForStmt:
		return c.compileFor(st, sc)
	case *RequireStmt:
		line := st.Pos()
		return func(*cframe) (Value, error) {
			return nil, fmt.Errorf("line %d: require is only allowed at the top of a script", line)
		}
	case *ProvideStmt:
		line := st.Pos()
		return func(*cframe) (Value, error) {
			return nil, fmt.Errorf("line %d: provide is only allowed at the top level of a capability-safe script", line)
		}
	}
	return func(*cframe) (Value, error) { return nil, fmt.Errorf("unknown statement %T", s) }
}

func (c *compiler) compileBind(st *BindStmt, sc *cscope) code {
	slot := sc.define(st.Name)
	expr := c.compileExpr(st.Expr, sc)
	name := st.Name
	line := st.Pos()
	if sc.top {
		// The top scope shares its namespace with the base environment
		// (ambient builtins and module imports live there), so a bind
		// must also collide with those — one env map in the tree-walk
		// engine, a slot set plus a map check here.
		return func(f *cframe) (Value, error) {
			v, err := expr(f)
			if err != nil {
				return nil, err
			}
			nameClosure(v, name)
			if f.slots[slot] != unset || f.run.base.hasLocal(name) {
				return nil, fmt.Errorf("line %d: duplicate definition of %q (SHILL bindings are immutable)", line, name)
			}
			f.slots[slot] = v
			return nil, nil
		}
	}
	return func(f *cframe) (Value, error) {
		v, err := expr(f)
		if err != nil {
			return nil, err
		}
		nameClosure(v, name)
		if f.slots[slot] != unset {
			return nil, fmt.Errorf("line %d: duplicate definition of %q (SHILL bindings are immutable)", line, name)
		}
		f.slots[slot] = v
		return nil, nil
	}
}

// nameClosure names an anonymous function by its binding, matching the
// tree-walk engine.
func nameClosure(v Value, name string) {
	switch cl := v.(type) {
	case *Closure:
		if cl.name == "" {
			cl.name = name
		}
	case *compiledClosure:
		if cl.name == "" {
			cl.name = name
		}
	}
}

func (c *compiler) compileIf(st *IfStmt, sc *cscope) code {
	cond := c.compileExpr(st.Cond, sc)
	line := st.Pos()
	thenScope := blockScope(sc, st.Then)
	thenCode := c.compileBlock(st.Then, thenScope)
	thenSlots := thenScope.n
	thenMat := thenScope.mat
	var elseCode []code
	var elseSlots int
	var elseMat bool
	if st.Else != nil {
		elseScope := blockScope(sc, st.Else)
		elseCode = c.compileBlock(st.Else, elseScope)
		elseSlots = elseScope.n
		elseMat = elseScope.mat
	}
	hasElse := st.Else != nil
	return func(f *cframe) (Value, error) {
		cv, err := cond(f)
		if err != nil {
			return nil, err
		}
		b, err := truthy(cv, "if condition")
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		if b {
			return execBlock(thenCode, blockFrame(f, thenMat, thenSlots))
		}
		if hasElse {
			return execBlock(elseCode, blockFrame(f, elseMat, elseSlots))
		}
		return nil, nil
	}
}

func (c *compiler) compileFor(st *ForStmt, sc *cscope) code {
	seq := c.compileExpr(st.Seq, sc)
	line := st.Pos()
	body := blockScope(sc, st.Body, st.Var)
	varSlot := body.names[st.Var]
	saw := c.sawFun
	c.sawFun = false
	bodyCode := c.compileBlock(st.Body, body)
	captures := c.sawFun // the body creates closures: they may capture per-iteration frames
	c.sawFun = saw || captures
	nslots := body.n
	return func(f *cframe) (Value, error) {
		sv, err := seq(f)
		if err != nil {
			return nil, err
		}
		list, ok := sv.([]Value)
		if !ok {
			return nil, fmt.Errorf("line %d: for expects a list, got %s", line, FormatValue(sv))
		}
		var bf *cframe
		for _, item := range list {
			// Loop back-edges are the compiled engine's in-loop
			// cancellation points.
			if err := f.run.it.checkCancel(); err != nil {
				return nil, err
			}
			if bf == nil || captures {
				bf = newFrame(f.run, f, nslots)
			} else {
				for i := range bf.slots {
					bf.slots[i] = unset
				}
			}
			bf.slots[varSlot] = item
			for _, bc := range bodyCode {
				if _, err := bc(bf); err != nil {
					return nil, err
				}
			}
		}
		return nil, nil
	}
}

func (c *compiler) compileBlock(stmts []Stmt, sc *cscope) []code {
	out := make([]code, len(stmts))
	for i, st := range stmts {
		out[i] = c.compileStmt(st, sc)
	}
	return out
}

// --- expressions ---

// constCode wraps a compile-time constant.
func constCode(v Value) code {
	return func(*cframe) (Value, error) { return v, nil }
}

// compileExpr compiles an expression; scalar literals (and error-free
// operations over them) fold to constants.
func (c *compiler) compileExpr(e Expr, sc *cscope) code {
	code, _, _ := c.compileExprConst(e, sc)
	return code
}

func (c *compiler) compileExprConst(e Expr, sc *cscope) (code, Value, bool) {
	switch ex := e.(type) {
	case *Ident:
		r := c.identRef(ex.Name, ex.Pos(), sc)
		return func(f *cframe) (Value, error) { return f.lookup(r) }, nil, false
	case *StringLit:
		return constCode(ex.Value), ex.Value, true
	case *NumberLit:
		return constCode(ex.Value), ex.Value, true
	case *BoolLit:
		return constCode(ex.Value), ex.Value, true
	case *ListLit:
		elems := make([]code, len(ex.Elems))
		for i, el := range ex.Elems {
			elems[i] = c.compileExpr(el, sc)
		}
		// Lists are freshly allocated per evaluation, like the
		// tree-walk engine — never folded, so no two evaluations share
		// a backing array.
		return func(f *cframe) (Value, error) {
			out := make([]Value, len(elems))
			for i, el := range elems {
				v, err := el(f)
				if err != nil {
					return nil, err
				}
				out[i] = v
			}
			return out, nil
		}, nil, false
	case *FunLit:
		def := c.compileFun(ex, sc)
		return func(f *cframe) (Value, error) {
			return &compiledClosure{def: def, env: f, run: f.run}, nil
		}, nil, false
	case *UnaryExpr:
		return c.compileUnary(ex, sc)
	case *BinaryExpr:
		return c.compileBinary(ex, sc)
	case *CallExpr:
		return c.compileCall(ex, sc), nil, false
	}
	return func(*cframe) (Value, error) { return nil, fmt.Errorf("unknown expression %T", e) }, nil, false
}

func (c *compiler) identRef(name string, line int, sc *cscope) *identRef {
	r := &identRef{name: name, line: line, cell: c.cell(name)}
	hops := 0
	for s := sc; s != nil; s = s.parent {
		if !s.mat {
			continue
		}
		if slot, ok := s.names[name]; ok {
			r.cands = append(r.cands, slotRef{hops: hops, slot: slot})
		}
		hops++
	}
	return r
}

func (c *compiler) compileFun(ex *FunLit, sc *cscope) *cfundef {
	c.sawFun = true
	body := &cscope{parent: sc, names: make(map[string]int), mat: true}
	def := &cfundef{params: ex.Params}
	for _, p := range ex.Params {
		if _, dup := body.names[p]; dup && def.dupParam == "" {
			def.dupParam = p
		}
		body.define(p)
	}
	for _, st := range ex.Body {
		if b, ok := st.(*BindStmt); ok {
			body.define(b.Name)
		}
	}
	def.paramSlots = make([]int, len(ex.Params))
	for i, p := range ex.Params {
		def.paramSlots[i] = body.names[p]
	}
	def.body = c.compileBlock(ex.Body, body)
	def.nslots = body.n
	return def
}

func (c *compiler) compileUnary(ex *UnaryExpr, sc *cscope) (code, Value, bool) {
	xc, xv, xk := c.compileExprConst(ex.X, sc)
	line := ex.Pos()
	switch ex.Op {
	case "!":
		if xk {
			if b, ok := xv.(bool); ok {
				return constCode(!b), !b, true
			}
		}
		return func(f *cframe) (Value, error) {
			x, err := xc(f)
			if err != nil {
				return nil, err
			}
			b, err := truthy(x, "operator !")
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", line, err)
			}
			return !b, nil
		}, nil, false
	case "-":
		if xk {
			if n, ok := xv.(float64); ok {
				return constCode(-n), -n, true
			}
		}
		return func(f *cframe) (Value, error) {
			x, err := xc(f)
			if err != nil {
				return nil, err
			}
			n, ok := x.(float64)
			if !ok {
				return nil, fmt.Errorf("line %d: unary - expects a number", line)
			}
			return -n, nil
		}, nil, false
	}
	op := ex.Op
	return func(f *cframe) (Value, error) {
		if _, err := xc(f); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("line %d: unknown unary operator %q", line, op)
	}, nil, false
}

// compileBinary mirrors evalBinary case by case, including the
// string/list behaviour of "+"/"++" and the exact error texts. Folding
// is conservative: only operations over scalar constants that cannot
// error fold; anything that could fail stays a runtime operation so
// the error fires only if execution reaches it.
func (c *compiler) compileBinary(ex *BinaryExpr, sc *cscope) (code, Value, bool) {
	line := ex.Pos()
	op := ex.Op
	if op == "&&" || op == "||" {
		lc, lv, lk := c.compileExprConst(ex.L, sc)
		rc, rv, rk := c.compileExprConst(ex.R, sc)
		if lk && rk {
			if lb, ok := lv.(bool); ok {
				if rb, ok := rv.(bool); ok {
					var out bool
					if op == "&&" {
						out = lb && rb
					} else {
						out = lb || rb
					}
					return constCode(out), out, true
				}
			}
		}
		isAnd := op == "&&"
		where := "operator " + op
		return func(f *cframe) (Value, error) {
			l, err := lc(f)
			if err != nil {
				return nil, err
			}
			lb, err := truthy(l, where)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", line, err)
			}
			if isAnd && !lb {
				return false, nil
			}
			if !isAnd && lb {
				return true, nil
			}
			r, err := rc(f)
			if err != nil {
				return nil, err
			}
			rb, err := truthy(r, where)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", line, err)
			}
			return rb, nil
		}, nil, false
	}

	lc, lv, lk := c.compileExprConst(ex.L, sc)
	rc, rv, rk := c.compileExprConst(ex.R, sc)
	if lk && rk {
		if v, ok := foldBinary(op, lv, rv); ok {
			return constCode(v), v, true
		}
	}
	return func(f *cframe) (Value, error) {
		l, err := lc(f)
		if err != nil {
			return nil, err
		}
		r, err := rc(f)
		if err != nil {
			return nil, err
		}
		return applyBinary(op, l, r, line)
	}, nil, false
}

// foldBinary evaluates a binary operation over two constants at
// compile time. It folds only results the runtime path would produce
// without error; everything else reports !ok and stays runtime.
func foldBinary(op string, l, r Value) (Value, bool) {
	switch op {
	case "==":
		return valueEqual(l, r), true
	case "!=":
		return !valueEqual(l, r), true
	}
	if ls, ok := l.(string); ok && (op == "+" || op == "++") {
		if rs, ok := r.(string); ok {
			return ls + rs, true
		}
		return ls + FormatValue(r), true
	}
	ln, lok := l.(float64)
	rn, rok := r.(float64)
	if !lok || !rok {
		return nil, false
	}
	switch op {
	case "+":
		return ln + rn, true
	case "-":
		return ln - rn, true
	case "*":
		return ln * rn, true
	case "/":
		if rn == 0 {
			return nil, false // division by zero stays a runtime error
		}
		return ln / rn, true
	case "<":
		return ln < rn, true
	case ">":
		return ln > rn, true
	case "<=":
		return ln <= rn, true
	case ">=":
		return ln >= rn, true
	}
	return nil, false
}

// applyBinary is the runtime half of compileBinary: a transliteration
// of evalBinary's non-short-circuit arm over already-evaluated
// operands.
func applyBinary(op string, l, r Value, line int) (Value, error) {
	switch op {
	case "==":
		return valueEqual(l, r), nil
	case "!=":
		return !valueEqual(l, r), nil
	case "+", "++":
		if ls, ok := l.(string); ok {
			if rs, ok := r.(string); ok {
				return ls + rs, nil
			}
			return ls + FormatValue(r), nil
		}
		if ll, ok := l.([]Value); ok {
			if rl, ok := r.([]Value); ok {
				return append(append([]Value{}, ll...), rl...), nil
			}
		}
		fallthrough
	case "-", "*", "/", "<", ">", "<=", ">=":
		ln, lok := l.(float64)
		rn, rok := r.(float64)
		if !lok || !rok {
			return nil, fmt.Errorf("line %d: operator %q expects numbers, got %s and %s",
				line, op, FormatValue(l), FormatValue(r))
		}
		switch op {
		case "+":
			return ln + rn, nil
		case "-":
			return ln - rn, nil
		case "*":
			return ln * rn, nil
		case "/":
			if rn == 0 {
				return nil, fmt.Errorf("line %d: division by zero", line)
			}
			return ln / rn, nil
		case "<":
			return ln < rn, nil
		case ">":
			return ln > rn, nil
		case "<=":
			return ln <= rn, nil
		case ">=":
			return ln >= rn, nil
		}
	}
	return nil, fmt.Errorf("line %d: unknown operator %q", line, op)
}

func (c *compiler) compileCall(ex *CallExpr, sc *cscope) code {
	fn := c.compileExpr(ex.Fn, sc)
	args := make([]code, len(ex.Args))
	for i, a := range ex.Args {
		args[i] = c.compileExpr(a, sc)
	}
	var namedNames []string
	var namedCodes []code
	for _, na := range ex.Named {
		namedNames = append(namedNames, na.Name)
		namedCodes = append(namedCodes, c.compileExpr(na.Expr, sc))
	}
	line := ex.Pos()
	return func(f *cframe) (Value, error) {
		fv, err := fn(f)
		if err != nil {
			return nil, err
		}
		callable, ok := fv.(callableValue)
		if !ok {
			return nil, fmt.Errorf("line %d: %s is not a function", line, FormatValue(fv))
		}
		if cc, ok := fv.(*compiledClosure); ok &&
			len(namedCodes) == 0 && len(args) == len(cc.def.params) {
			cf, err := cc.frameWithArgs(f, args)
			if err != nil {
				return nil, err // argument error: unwrapped, as on the generic path
			}
			out, err := cc.invoke(cf)
			if err != nil {
				if isViolation(err) {
					return nil, err
				}
				return nil, fmt.Errorf("line %d: %w", line, err)
			}
			return out, nil
		}
		av := make([]Value, len(args))
		for i, ac := range args {
			v, err := ac(f)
			if err != nil {
				return nil, err
			}
			av[i] = v
		}
		var named map[string]Value
		if len(namedCodes) > 0 {
			named = make(map[string]Value, len(namedCodes))
			for i, nc := range namedCodes {
				v, err := nc(f)
				if err != nil {
					return nil, err
				}
				named[namedNames[i]] = v
			}
		}
		out, err := callable.Call(av, named)
		if err != nil {
			if isViolation(err) {
				return nil, err
			}
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		return out, nil
	}
}
