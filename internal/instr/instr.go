// Package instr is XPlacer's source-to-source instrumentation pass for Go
// programs — the role the ROSE plugin plays for C++/CUDA in the paper
// (§III-B, Fig. 1). It rewrites a Go source file so that every expression
// that possibly accesses heap memory is wrapped in a call to the xplrt
// runtime:
//
//	*p = 0        becomes  *xplrt.TraceW(p) = 0
//	x := *p       becomes  x := *xplrt.TraceR(p)
//	*p += 2       becomes  *xplrt.TraceRW(p) += 2
//	s[i] = v      becomes  *xplrt.TraceW(&s[i]) = v
//	y := q.field  becomes  y := *xplrt.TraceR(&q.field)   (q a pointer)
//
// matching the paper's traceR/traceW/traceRW API (Table I). Instrumentation
// is elided where the paper elides it: accesses to plain (non-reference)
// variables, operands of address-of, map indexing (not addressable in Go),
// and type contexts.
//
// Pragmas mirror the paper's:
//
//	//xpl:replace oldFn newFn
//	    replaces calls to oldFn with calls to newFn (the cudaMalloc ->
//	    trcMalloc mechanism).
//	//xpl:diagnostic tracePrint(os.Stdout; a, z)
//	    inserts a diagnostic call at this point; arguments before the
//	    semicolon are copied verbatim, each pointer variable after it is
//	    expanded into named allocation records (XplAllocData analogs) via
//	    xplrt.ExpandAll/xplrt.Arg.
//	//xpl:scope s
//	    in a function's doc comment: the function body runs under the
//	    device scope held by its parameter s (*xplrt.DeviceScope), so its
//	    accesses are emitted as xplrt.ScopeR(s, ptr) / ScopeW / ScopeRW
//	    instead of the process-default TraceR / TraceW / TraceRW forms.
//	//xpl:range
//	    immediately precedes a canonical counted loop
//	    (for i := lo; i < hi; i++): every unconditional base[i] access in
//	    the body — base a plain slice-typed operand, index exactly the
//	    loop variable — is hoisted into one compact range-trace call
//	    before the loop, xplrt.Range(xplrt.Read|Write|ReadWrite, base[lo:hi])
//	    (xplrt.ScopeRange(s, kind, ...) inside an //xpl:scope function), and
//	    left unwrapped in the body.
//	    Per-word shadow semantics are identical to the per-element
//	    instrumentation (each such site touches word i exactly once, at
//	    iteration i, so site-major emission preserves every word's access
//	    order); the recording cost drops from O(iterations) to O(sites).
//	    Conditional accesses, other index shapes, and nested loops keep
//	    per-element instrumentation. A pragma on a loop that is not
//	    canonical — other condition or step shapes, impure bounds, early
//	    exits, loop-variable mutation — is an error, as is a pragma not
//	    attached to a for statement.
//
// The pass type-checks the input (go/types) to decide which expressions
// touch the heap.
package instr

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
)

// Options configures the pass.
type Options struct {
	// RuntimePackage is the import path of the runtime library; defaults
	// to "xplacer/xplrt".
	RuntimePackage string
	// RuntimeAlias is the local name used for the inserted import;
	// defaults to "xplrt".
	RuntimeAlias string
	// Support lists additional source files of the same package that are
	// type-checked together with the instrumented file but left unchanged
	// (declarations of replacement functions, diagnostic sinks, ...).
	Support []NamedSource
}

// NamedSource is a filename/source pair.
type NamedSource struct {
	Name string
	Src  []byte
}

func (o *Options) fill() {
	if o.RuntimePackage == "" {
		o.RuntimePackage = "xplacer/xplrt"
	}
	if o.RuntimeAlias == "" {
		o.RuntimeAlias = "xplrt"
	}
}

// diagPragma is one parsed //xpl:diagnostic comment.
type diagPragma struct {
	pos      token.Pos
	fn       ast.Expr
	verbatim []ast.Expr
	expanded []ast.Expr // must be identifiers or selector chains
	consumed bool
	text     string
}

// rangePragma is one //xpl:range comment, consumed by the for statement it
// precedes.
type rangePragma struct {
	pos      token.Pos
	consumed bool
}

// rangeSite is one coalescable base[i] access found under an //xpl:range
// loop, in source order.
type rangeSite struct {
	base ast.Expr // freshly cloned operand, safe to re-print
	mode mode
}

// rangeCtx is the walk state of one //xpl:range loop body.
type rangeCtx struct {
	obj types.Object // the loop variable
	// cond > 0 inside conditionally or repeatedly executed code (if/else
	// arms, nested loops, switch cases, short-circuit operands, closures):
	// accesses there do not run exactly once per index and are left to
	// per-element instrumentation.
	cond  int
	sites []rangeSite
}

// Package instruments every listed file of one Go package together (they
// are type-checked as a unit) and returns the rewritten sources keyed by
// file name — the whole-program mode of the paper's workflow, where
// everything after the XPlacer header include is instrumented.
func Package(files []NamedSource, opt Options) (map[string][]byte, error) {
	opt.fill()
	fset := token.NewFileSet()
	var parsed []*ast.File
	for _, in := range files {
		f, err := parser.ParseFile(fset, in.Name, in.Src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("instr: parse %s: %w", in.Name, err)
		}
		parsed = append(parsed, f)
	}
	for _, sup := range opt.Support {
		sf, err := parser.ParseFile(fset, sup.Name, sup.Src, 0)
		if err != nil {
			return nil, fmt.Errorf("instr: parse support %s: %w", sup.Name, err)
		}
		parsed = append(parsed, sf)
	}
	info, err := check(fset, parsed)
	if err != nil {
		return nil, err
	}
	out := map[string][]byte{}
	for i := range files {
		b, err := rewriteOne(fset, parsed[i], info, opt)
		if err != nil {
			return nil, err
		}
		out[files[i].Name] = b
	}
	return out, nil
}

// File instruments one self-contained Go source file and returns the
// rewritten source.
func File(filename string, src []byte, opt Options) ([]byte, error) {
	opt.fill()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("instr: parse: %w", err)
	}
	files := []*ast.File{f}
	for _, sup := range opt.Support {
		sf, err := parser.ParseFile(fset, sup.Name, sup.Src, 0)
		if err != nil {
			return nil, fmt.Errorf("instr: parse support %s: %w", sup.Name, err)
		}
		files = append(files, sf)
	}

	info, err := check(fset, files)
	if err != nil {
		return nil, err
	}
	return rewriteOne(fset, f, info, opt)
}

// check type-checks the files as one package. Unused imports are
// tolerated: a package imported only for a //xpl:diagnostic pragma (e.g.
// os.Stdout) becomes used once the pragma expands.
func check(fset *token.FileSet, files []*ast.File) (*types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: sourceImporter,
		Error: func(err error) {
			if strings.Contains(err.Error(), "imported and not used") {
				return
			}
			typeErrs = append(typeErrs, err)
		},
	}
	_, _ = conf.Check(files[0].Name.Name, fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("instr: typecheck: %w", typeErrs[0])
	}
	return info, nil
}

// sourceImporter is the one source importer of the process. It caches
// every package it type-checks, so each import is checked from source
// once, not on every call. Its FileSet is its own, since a caller's lives
// for one call; the mutex is there because the importer is not safe for
// concurrent use.
var sourceImporter = &lockedImporter{
	imp: importer.ForCompiler(token.NewFileSet(), "source", nil).(types.ImporterFrom),
}

type lockedImporter struct {
	mu  sync.Mutex
	imp types.ImporterFrom
}

func (l *lockedImporter) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, ".", 0)
}

func (l *lockedImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.imp.ImportFrom(path, dir, mode)
}

// rewriteOne instruments one already-checked file and prints it.
func rewriteOne(fset *token.FileSet, f *ast.File, info *types.Info, opt Options) ([]byte, error) {
	r := &rewriter{fset: fset, info: info, opt: opt}
	if err := r.collectPragmas(f); err != nil {
		return nil, err
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			sc, err := scopePragma(fset, fd)
			if err != nil {
				return nil, err
			}
			r.scope = sc
			r.block(fd.Body)
			r.scope = ""
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	for _, d := range r.diags {
		if !d.consumed {
			return nil, fmt.Errorf("instr: %s: //xpl:diagnostic pragma outside a function body: %s",
				fset.Position(d.pos), d.text)
		}
	}
	for _, p := range r.ranges {
		if !p.consumed {
			return nil, fmt.Errorf("instr: %s: //xpl:range pragma not attached to a for statement",
				fset.Position(p.pos))
		}
	}
	if r.usedRuntime {
		addImport(f, opt.RuntimeAlias, opt.RuntimePackage)
	}
	dropRangeComments(f, r.ranges)

	var buf bytes.Buffer
	if err := format.Node(&buf, fset, f); err != nil {
		return nil, fmt.Errorf("instr: print: %w", err)
	}
	return buf.Bytes(), nil
}

// rewriter holds the pass state.
type rewriter struct {
	fset        *token.FileSet
	info        *types.Info
	opt         Options
	replaces    map[string]string
	diags       []*diagPragma
	ranges      []*rangePragma
	usedRuntime bool
	// scope is the //xpl:scope identifier of the enclosing function ("" =
	// none): accesses trace through ScopeR/W/RW with it instead of the
	// process-default TraceR/W/RW.
	scope string
	// rng is the active //xpl:range loop walk, nil outside one.
	rng *rangeCtx
	// err records the first rewrite error (pragma misuse); the AST walk
	// has no error return, so it is checked after the walk.
	err error
}

// errf records the first rewrite error.
func (r *rewriter) errf(pos token.Pos, format string, args ...any) {
	if r.err == nil {
		args = append([]any{r.fset.Position(pos)}, args...)
		r.err = fmt.Errorf("instr: %s: "+format, args...)
	}
}

// scopePragma extracts the //xpl:scope identifier from a function's doc
// comment, or "" when absent.
func scopePragma(fset *token.FileSet, fd *ast.FuncDecl) (string, error) {
	if fd.Doc == nil {
		return "", nil
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if !strings.HasPrefix(text, "xpl:scope") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(text, "xpl:scope"))
		if len(fields) != 1 || !token.IsIdentifier(fields[0]) {
			return "", fmt.Errorf("instr: %s: want //xpl:scope ident, got %q",
				fset.Position(c.Pos()), c.Text)
		}
		return fields[0], nil
	}
	return "", nil
}

// collectPragmas scans the file's comments for xpl pragmas.
func (r *rewriter) collectPragmas(f *ast.File) error {
	r.replaces = map[string]string{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			switch {
			case strings.HasPrefix(text, "xpl:replace"):
				fields := strings.Fields(strings.TrimPrefix(text, "xpl:replace"))
				if len(fields) != 2 || !isFuncName(fields[0]) || !isFuncName(fields[1]) {
					return fmt.Errorf("instr: %s: want //xpl:replace old new, got %q",
						r.fset.Position(c.Pos()), c.Text)
				}
				r.replaces[fields[0]] = fields[1]
			case strings.HasPrefix(text, "xpl:range"):
				if rest := strings.TrimSpace(strings.TrimPrefix(text, "xpl:range")); rest != "" {
					return fmt.Errorf("instr: %s: //xpl:range takes no arguments, got %q",
						r.fset.Position(c.Pos()), c.Text)
				}
				r.ranges = append(r.ranges, &rangePragma{pos: c.Pos()})
			case strings.HasPrefix(text, "xpl:diagnostic"):
				d, err := parseDiagnostic(c.Pos(), strings.TrimSpace(strings.TrimPrefix(text, "xpl:diagnostic")))
				if err != nil {
					return fmt.Errorf("instr: %s: %v", r.fset.Position(c.Pos()), err)
				}
				r.diags = append(r.diags, d)
			}
		}
	}
	sort.Slice(r.diags, func(i, j int) bool { return r.diags[i].pos < r.diags[j].pos })
	sort.Slice(r.ranges, func(i, j int) bool { return r.ranges[i].pos < r.ranges[j].pos })
	return nil
}

// parseDiagnostic parses "fn(verbatim...; expanded...)".
func parseDiagnostic(pos token.Pos, text string) (*diagPragma, error) {
	open := strings.Index(text, "(")
	close := strings.LastIndex(text, ")")
	if open < 0 || close < open {
		return nil, fmt.Errorf("want fn(verbatim; expanded), got %q", text)
	}
	fnExpr, err := parser.ParseExpr(text[:open])
	if err != nil {
		return nil, fmt.Errorf("bad diagnostic function %q: %v", text[:open], err)
	}
	d := &diagPragma{pos: pos, fn: fnExpr, text: text}
	inner := text[open+1 : close]
	parts := strings.SplitN(inner, ";", 2)
	parse := func(list string) ([]ast.Expr, error) {
		list = strings.TrimSpace(list)
		if list == "" {
			return nil, nil
		}
		// Parse "f(list)" to split on top-level commas correctly.
		e, err := parser.ParseExpr("f(" + list + ")")
		if err != nil {
			return nil, fmt.Errorf("bad argument list %q: %v", list, err)
		}
		return e.(*ast.CallExpr).Args, nil
	}
	if d.verbatim, err = parse(parts[0]); err != nil {
		return nil, err
	}
	if len(parts) == 2 {
		if d.expanded, err = parse(parts[1]); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// --- type helpers -----------------------------------------------------------

func (r *rewriter) typeOf(e ast.Expr) types.Type {
	if tv, ok := r.info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func (r *rewriter) isType(e ast.Expr) bool {
	tv, ok := r.info.Types[e]
	return ok && tv.IsType()
}

func (r *rewriter) isBuiltin(e ast.Expr) bool {
	tv, ok := r.info.Types[e]
	return ok && tv.IsBuiltin()
}

func isPointer(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}

// sliceLike reports whether indexing t yields an addressable heap element:
// slices and pointers-to-array qualify; maps, strings, and plain array
// values do not (arrays may live on the stack and may not be addressable).
func sliceLike(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return true
	case *types.Pointer:
		_, isArr := u.Elem().Underlying().(*types.Array)
		return isArr
	default:
		return false
	}
}

// --- expression rewriting -----------------------------------------------------

// mode describes the access context of the expression being rewritten.
type mode int

const (
	load   mode = iota // r-value
	store              // assignment target
	update             // compound assignment / inc-dec target
	place              // addressable place whose own access is elided (&x)
)

func (m mode) traceFn() string {
	switch m {
	case store:
		return "TraceW"
	case update:
		return "TraceRW"
	default:
		return "TraceR"
	}
}

// kindName is the xplrt access-kind constant for the mode, used by the
// generic range-tracing calls (xplrt.Range / xplrt.ScopeRange).
func (m mode) kindName() string {
	switch m {
	case store:
		return "Write"
	case update:
		return "ReadWrite"
	default:
		return "Read"
	}
}

// trace builds xplrt.TraceX(ptr) — or, inside an //xpl:scope function,
// xplrt.ScopeX(scope, ptr).
func (r *rewriter) trace(m mode, ptr ast.Expr) ast.Expr {
	r.usedRuntime = true
	fn := m.traceFn()
	args := []ast.Expr{ptr}
	if r.scope != "" {
		fn = "Scope" + strings.TrimPrefix(fn, "Trace")
		args = []ast.Expr{ast.NewIdent(r.scope), ptr}
	}
	return &ast.CallExpr{
		Fun: &ast.SelectorExpr{
			X:   ast.NewIdent(r.opt.RuntimeAlias),
			Sel: ast.NewIdent(fn),
		},
		Args: args,
	}
}

// deref builds *call.
func deref(call ast.Expr) ast.Expr { return &ast.StarExpr{X: call} }

// addrOf builds &place.
func addrOf(placeExpr ast.Expr) ast.Expr {
	return &ast.UnaryExpr{Op: token.AND, X: placeExpr}
}

// expr rewrites e in the given access context and returns the replacement.
func (r *rewriter) expr(e ast.Expr, m mode) ast.Expr {
	switch e := e.(type) {
	case *ast.ParenExpr:
		e.X = r.expr(e.X, m)
		return e

	case *ast.StarExpr:
		if r.isType(e) {
			return e // pointer type in expression position (conversion)
		}
		ptrOK := isPointer(r.typeOf(e.X))
		e.X = r.expr(e.X, load)
		if !ptrOK || m == place {
			return e // &*p is p: the access itself is elided (§III-B)
		}
		return deref(r.trace(m, e.X))

	case *ast.IndexExpr:
		baseT := r.typeOf(e.X)
		if r.coalesce(e, baseT, m) {
			return e // hoisted into the //xpl:range prelude; body site stays bare
		}
		e.X = r.expr(e.X, load)
		e.Index = r.expr(e.Index, load)
		if !sliceLike(baseT) || m == place {
			return e // maps, strings, generic instantiations, array values
		}
		return deref(r.trace(m, addrOf(e)))

	case *ast.SelectorExpr:
		sel, isSel := r.info.Selections[e]
		if !isSel {
			return e // package-qualified identifier
		}
		baseT := r.typeOf(e.X)
		e.X = r.expr(e.X, load)
		if sel.Kind() != types.FieldVal || !isPointer(baseT) || m == place {
			return e // methods, value-struct fields (stack), &p.f operands
		}
		return deref(r.trace(m, addrOf(e)))

	case *ast.UnaryExpr:
		if e.Op == token.AND {
			e.X = r.expr(e.X, place)
			return e
		}
		e.X = r.expr(e.X, load)
		return e

	case *ast.BinaryExpr:
		e.X = r.expr(e.X, load)
		if e.Op == token.LAND || e.Op == token.LOR {
			// The right operand is conditionally evaluated.
			r.conditional(func() { e.Y = r.expr(e.Y, load) })
		} else {
			e.Y = r.expr(e.Y, load)
		}
		return e

	case *ast.CallExpr:
		r.rewriteCall(e)
		return e

	case *ast.CompositeLit:
		for i, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				kv.Value = r.expr(kv.Value, load)
				continue
			}
			e.Elts[i] = r.expr(el, load)
		}
		return e

	case *ast.SliceExpr:
		// Slicing reads only the slice header; elements are untouched.
		e.X = r.expr(e.X, load)
		if e.Low != nil {
			e.Low = r.expr(e.Low, load)
		}
		if e.High != nil {
			e.High = r.expr(e.High, load)
		}
		if e.Max != nil {
			e.Max = r.expr(e.Max, load)
		}
		return e

	case *ast.TypeAssertExpr:
		e.X = r.expr(e.X, load)
		return e

	case *ast.FuncLit:
		r.conditional(func() { r.block(e.Body) })
		return e

	default:
		// Identifiers, literals, types: direct variable accesses are not
		// instrumented ("when variables that have non-reference type are
		// accessed", §III-B).
		return e
	}
}

// rewriteCall handles function calls: pragma-driven replacement, builtins,
// conversions, and argument rewriting.
func (r *rewriter) rewriteCall(e *ast.CallExpr) {
	// //xpl:replace
	if id, ok := e.Fun.(*ast.Ident); ok {
		if repl, ok := r.replaces[id.Name]; ok {
			e.Fun = replacementExpr(repl)
		}
	} else if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
		if base, ok := sel.X.(*ast.Ident); ok {
			if repl, ok := r.replaces[base.Name+"."+sel.Sel.Name]; ok {
				e.Fun = replacementExpr(repl)
			}
		}
	}

	if r.isType(e.Fun) {
		// Conversion: T(x).
		for i := range e.Args {
			e.Args[i] = r.expr(e.Args[i], load)
		}
		return
	}
	if r.isBuiltin(e.Fun) {
		// new(T), make([]T, n), len(x), ...: skip type arguments.
		for i := range e.Args {
			if r.isType(e.Args[i]) {
				continue
			}
			e.Args[i] = r.expr(e.Args[i], load)
		}
		return
	}
	// Rewrite a *p() function-pointer call's pointer read, and method
	// receivers' child expressions.
	e.Fun = r.expr(e.Fun, load)
	for i := range e.Args {
		e.Args[i] = r.expr(e.Args[i], load)
	}
}

// isFuncName reports whether s is a function name //xpl:replace takes:
// an identifier, or a dotted pkg.Fn.
func isFuncName(s string) bool {
	pkg, fn, dotted := strings.Cut(s, ".")
	return token.IsIdentifier(pkg) && (!dotted || token.IsIdentifier(fn))
}

// replacementExpr builds the AST for a replacement function name, which
// may be dotted (pkg.Fn).
func replacementExpr(name string) ast.Expr {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return &ast.SelectorExpr{X: ast.NewIdent(name[:i]), Sel: ast.NewIdent(name[i+1:])}
	}
	return ast.NewIdent(name)
}

// --- statement rewriting -------------------------------------------------------

// stmt rewrites one statement in place.
func (r *rewriter) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		m := store
		switch s.Tok {
		case token.DEFINE:
			m = place // new variables: nothing to trace on the LHS
		case token.ASSIGN:
			m = store
		default:
			m = update // +=, -=, ...
		}
		for i := range s.Lhs {
			if id, ok := s.Lhs[i].(*ast.Ident); ok && (s.Tok == token.DEFINE || id.Name == "_") {
				continue
			}
			if s.Tok == token.DEFINE {
				continue
			}
			s.Lhs[i] = r.expr(s.Lhs[i], m)
		}
		for i := range s.Rhs {
			s.Rhs[i] = r.expr(s.Rhs[i], load)
		}

	case *ast.IncDecStmt:
		s.X = r.expr(s.X, update)

	case *ast.ExprStmt:
		s.X = r.expr(s.X, load)

	case *ast.SendStmt:
		s.Chan = r.expr(s.Chan, load)
		s.Value = r.expr(s.Value, load)

	case *ast.ReturnStmt:
		for i := range s.Results {
			s.Results[i] = r.expr(s.Results[i], load)
		}

	case *ast.IfStmt:
		if s.Init != nil {
			r.stmt(s.Init)
		}
		s.Cond = r.expr(s.Cond, load)
		r.conditional(func() {
			r.block(s.Body)
			if s.Else != nil {
				r.stmt(s.Else)
			}
		})

	case *ast.ForStmt:
		r.conditional(func() {
			if s.Init != nil {
				r.stmt(s.Init)
			}
			if s.Cond != nil {
				s.Cond = r.expr(s.Cond, load)
			}
			if s.Post != nil {
				r.stmt(s.Post)
			}
			r.block(s.Body)
		})

	case *ast.RangeStmt:
		r.conditional(func() {
			if r.rewriteSliceRange(s) {
				return
			}
			s.X = r.expr(s.X, load)
			if s.Tok == token.ASSIGN {
				if s.Key != nil {
					s.Key = r.expr(s.Key, store)
				}
				if s.Value != nil {
					s.Value = r.expr(s.Value, store)
				}
			}
			r.block(s.Body)
		})

	case *ast.SwitchStmt:
		if s.Init != nil {
			r.stmt(s.Init)
		}
		if s.Tag != nil {
			s.Tag = r.expr(s.Tag, load)
		}
		r.conditional(func() { r.block(s.Body) })

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			r.stmt(s.Init)
		}
		r.conditional(func() { r.block(s.Body) })

	case *ast.SelectStmt:
		r.conditional(func() { r.block(s.Body) })

	case *ast.CaseClause:
		for i := range s.List {
			s.List[i] = r.expr(s.List[i], load)
		}
		for _, st := range s.Body {
			r.stmt(st)
		}

	case *ast.CommClause:
		if s.Comm != nil {
			r.stmt(s.Comm)
		}
		for _, st := range s.Body {
			r.stmt(st)
		}

	case *ast.BlockStmt:
		r.block(s)

	case *ast.LabeledStmt:
		r.stmt(s.Stmt)

	case *ast.GoStmt:
		r.rewriteCall(s.Call)

	case *ast.DeferStmt:
		r.rewriteCall(s.Call)

	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for i := range vs.Values {
						vs.Values[i] = r.expr(vs.Values[i], load)
					}
				}
			}
		}
	}
}

// rewriteSliceRange handles "for k, v := range s" over a slice: the value
// binding reads s[k] from the heap each iteration, so it becomes
//
//	for k := range s { v := *xplrt.TraceR(&s[k]); ... }
//
// It reports whether it handled the statement. The transformation only
// fires when it is semantics-preserving: a := range over a slice whose
// expression is a plain identifier or selector chain (evaluated once by
// the original range too, and free to re-evaluate), with a value binding.
func (r *rewriter) rewriteSliceRange(s *ast.RangeStmt) bool {
	if s.Tok != token.DEFINE || s.Value == nil {
		return false
	}
	valID, ok := s.Value.(*ast.Ident)
	if !ok || valID.Name == "_" {
		return false
	}
	if _, isSlice := underlyingOf(r.typeOf(s.X)).(*types.Slice); !isSlice {
		return false
	}
	if !pureOperand(s.X) {
		return false
	}
	key := s.Key
	keyID, keyIsIdent := key.(*ast.Ident)
	if key == nil || (keyIsIdent && keyID.Name == "_") {
		// Materialize a key to index with.
		keyID = ast.NewIdent("xplIdx")
		s.Key = keyID
	} else if !keyIsIdent {
		return false
	} else {
		keyID = ast.NewIdent(keyID.Name) // fresh node for the index expr
	}
	// v := *xplrt.TraceR(&s[k])
	bind := &ast.AssignStmt{
		Lhs: []ast.Expr{ast.NewIdent(valID.Name)},
		Tok: token.DEFINE,
		Rhs: []ast.Expr{deref(r.trace(load, addrOf(&ast.IndexExpr{
			X:     s.X,
			Index: keyID,
		})))},
	}
	s.Value = nil
	r.block(s.Body)
	s.Body.List = append([]ast.Stmt{bind}, s.Body.List...)
	return true
}

// pureOperand reports whether re-evaluating the expression is safe and
// cheap: identifiers and selector chains over identifiers.
func pureOperand(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return true
	case *ast.SelectorExpr:
		return pureOperand(e.X)
	default:
		return false
	}
}

func underlyingOf(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}

// --- //xpl:range loop coalescing ---------------------------------------------

// conditional runs f with the active //xpl:range walk (if any) marked as
// inside conditionally or repeatedly executed code, so accesses found
// there keep per-element instrumentation.
func (r *rewriter) conditional(f func()) {
	if r.rng != nil {
		r.rng.cond++
		defer func() { r.rng.cond-- }()
	}
	f()
}

// coalesce records e as a range site of the active //xpl:range loop and
// reports whether it did: e must be an unconditional base[i] access with i
// exactly the loop variable and base a slice-like operand whose own
// evaluation is elided (re-evaluating it in the hoisted call traces
// nothing the loop body would have traced).
func (r *rewriter) coalesce(e *ast.IndexExpr, baseT types.Type, m mode) bool {
	rng := r.rng
	if rng == nil || rng.cond != 0 || m == place {
		return false
	}
	id, ok := e.Index.(*ast.Ident)
	if !ok || rng.obj == nil || r.info.Uses[id] != rng.obj {
		return false
	}
	if !sliceLike(baseT) || !r.elided(e.X) {
		return false
	}
	rng.sites = append(rng.sites, rangeSite{base: cloneOperand(e.X), mode: m})
	return true
}

// pendingRange returns the first unconsumed //xpl:range pragma positioned
// between a block's opening brace and the next statement.
func (r *rewriter) pendingRange(lbrace, next token.Pos) *rangePragma {
	for _, p := range r.ranges {
		if !p.consumed && p.pos > lbrace && p.pos < next {
			return p
		}
	}
	return nil
}

// rangeFor applies one //xpl:range pragma: it checks the loop is the
// canonical `for i := lo; i < hi; i++` with pure bounds and no early
// exits, rewrites the body collecting coalescable sites, and returns the
// hoisted range-trace calls (one per site, in source order). Hoisting is
// exact: each site touches word i exactly once, at iteration i, so
// site-major emission replays every word's access sequence in the same
// order as the per-element loop. Non-canonical loops record an error.
func (r *rewriter) rangeFor(p *rangePragma, s *ast.ForStmt) []ast.Stmt {
	bad := func(reason string) []ast.Stmt {
		r.errf(p.pos, "//xpl:range: %s", reason)
		return nil
	}
	init, ok := s.Init.(*ast.AssignStmt)
	if !ok || init.Tok != token.DEFINE || len(init.Lhs) != 1 || len(init.Rhs) != 1 {
		return bad("want a canonical loop: for i := lo; i < hi; i++")
	}
	iv, ok := init.Lhs[0].(*ast.Ident)
	if !ok || r.info.Defs[iv] == nil {
		return bad("want a canonical loop: for i := lo; i < hi; i++")
	}
	obj := r.info.Defs[iv]
	cond, ok := s.Cond.(*ast.BinaryExpr)
	if !ok || cond.Op != token.LSS {
		return bad("want loop condition i < hi")
	}
	cid, ok := cond.X.(*ast.Ident)
	if !ok || r.info.Uses[cid] != obj {
		return bad("want loop condition i < hi")
	}
	post, ok := s.Post.(*ast.IncDecStmt)
	if !ok || post.Tok != token.INC {
		return bad("want loop step i++")
	}
	pid, ok := post.X.(*ast.Ident)
	if !ok || r.info.Uses[pid] != obj {
		return bad("want loop step i++")
	}
	lo, hi := init.Rhs[0], cond.Y
	if !r.pureBound(lo) || !r.pureBound(hi) {
		return bad("loop bounds must be plain variables, value-struct fields, or integer literals")
	}
	if reason := escapeReason(s.Body); reason != "" {
		return bad(reason)
	}
	if r.mutatesVar(s.Body, obj) {
		return bad("loop body modifies the loop variable")
	}

	saved := r.rng
	r.rng = &rangeCtx{obj: obj}
	r.block(s.Body)
	sites := r.rng.sites
	r.rng = saved
	if len(sites) == 0 {
		return bad("no coalescable base[i] accesses in the loop body")
	}
	pre := make([]ast.Stmt, 0, len(sites))
	for _, site := range sites {
		pre = append(pre, r.rangeCall(site, lo, hi))
	}
	return pre
}

// rangeCall builds xplrt.Range(xplrt.Kind, base[lo:hi]) —
// xplrt.ScopeRange(s, xplrt.Kind, base[lo:hi]) inside an //xpl:scope
// function.
func (r *rewriter) rangeCall(site rangeSite, lo, hi ast.Expr) ast.Stmt {
	r.usedRuntime = true
	kind := &ast.SelectorExpr{
		X:   ast.NewIdent(r.opt.RuntimeAlias),
		Sel: ast.NewIdent(site.mode.kindName()),
	}
	sl := &ast.SliceExpr{X: site.base, Low: cloneOperand(lo), High: cloneOperand(hi)}
	fn := "Range"
	args := []ast.Expr{kind, sl}
	if r.scope != "" {
		fn = "ScopeRange"
		args = []ast.Expr{ast.NewIdent(r.scope), kind, sl}
	}
	return &ast.ExprStmt{X: &ast.CallExpr{
		Fun: &ast.SelectorExpr{
			X:   ast.NewIdent(r.opt.RuntimeAlias),
			Sel: ast.NewIdent(fn),
		},
		Args: args,
	}}
}

// pureBound reports whether a loop bound may be re-evaluated in the
// hoisted slice expression: integer literals, len(x) of such an operand,
// and operands whose own evaluation is elided (no traced access happens
// that the original loop header would not also perform).
func (r *rewriter) pureBound(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.BasicLit:
		return e.Kind == token.INT
	case *ast.CallExpr:
		id, ok := e.Fun.(*ast.Ident)
		return ok && id.Name == "len" && r.isBuiltin(e.Fun) &&
			len(e.Args) == 1 && pureOperand(e.Args[0]) && r.elided(e.Args[0])
	}
	return pureOperand(e) && r.elided(e)
}

// elided reports whether evaluating the operand itself performs no traced
// access: plain identifiers and field selections over value structs.
// Selecting through a pointer (q.buf) is a traced heap read per iteration
// in the per-element loop, so such operands are not hoistable.
func (r *rewriter) elided(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return true
	case *ast.ParenExpr:
		return r.elided(e.X)
	case *ast.SelectorExpr:
		sel, isSel := r.info.Selections[e]
		if !isSel {
			return true // package-qualified identifier
		}
		if sel.Kind() == types.FieldVal && isPointer(r.typeOf(e.X)) {
			return false
		}
		return r.elided(e.X)
	default:
		return false
	}
}

// cloneOperand rebuilds an identifier / selector-chain / literal / len()
// operand as fresh position-free nodes, safe to splice into generated
// code.
func cloneOperand(e ast.Expr) ast.Expr {
	switch e := e.(type) {
	case *ast.Ident:
		return ast.NewIdent(e.Name)
	case *ast.ParenExpr:
		return cloneOperand(e.X)
	case *ast.SelectorExpr:
		return &ast.SelectorExpr{X: cloneOperand(e.X), Sel: ast.NewIdent(e.Sel.Name)}
	case *ast.BasicLit:
		return &ast.BasicLit{Kind: e.Kind, Value: e.Value}
	case *ast.CallExpr:
		args := make([]ast.Expr, len(e.Args))
		for i, a := range e.Args {
			args[i] = cloneOperand(a)
		}
		return &ast.CallExpr{Fun: cloneOperand(e.Fun), Args: args}
	default:
		return e
	}
}

// mutatesVar reports whether the body assigns, increments, or takes the
// address of the loop variable (closures included — a captured &i breaks
// the canonical index progression).
func (r *rewriter) mutatesVar(body *ast.BlockStmt, obj types.Object) bool {
	uses := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && r.info.Uses[id] == obj
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				if uses(l) {
					found = true
				}
			}
		case *ast.IncDecStmt:
			if uses(n.X) {
				found = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND && uses(n.X) {
				found = true
			}
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN && (n.Key != nil && uses(n.Key) || n.Value != nil && uses(n.Value)) {
				found = true
			}
		}
		return !found
	})
	return found
}

// dropRangeComments removes consumed //xpl:range comments from the file:
// they annotate source the rewrite has already transformed, and the
// printer would otherwise float them into the position-free inserted
// calls.
func dropRangeComments(f *ast.File, ranges []*rangePragma) {
	if len(ranges) == 0 {
		return
	}
	drop := map[token.Pos]bool{}
	for _, p := range ranges {
		if p.consumed {
			drop[p.pos] = true
		}
	}
	groups := f.Comments[:0]
	for _, cg := range f.Comments {
		list := cg.List[:0]
		for _, c := range cg.List {
			if !drop[c.Pos()] {
				list = append(list, c)
			}
		}
		if len(list) > 0 {
			cg.List = list
			groups = append(groups, cg)
		}
	}
	f.Comments = groups
}

// escapeReason scans an //xpl:range loop body for early exits that would
// break the "body runs for every index in [lo, hi)" premise. Branches
// that bind to constructs nested inside the body (a nested loop's break,
// a switch's break) are fine; function literals are opaque (return inside
// one does not leave the loop).
func escapeReason(body *ast.BlockStmt) string {
	reason := ""
	var walk func(s ast.Stmt, loop, sw int)
	walk = func(s ast.Stmt, loop, sw int) {
		if reason != "" {
			return
		}
		switch s := s.(type) {
		case *ast.ReturnStmt:
			reason = "loop body returns early"
		case *ast.BranchStmt:
			switch {
			case s.Tok == token.GOTO || s.Label != nil:
				reason = "loop body has a goto or labeled branch"
			case s.Tok == token.BREAK && loop == 0 && sw == 0:
				reason = "loop body breaks out of the loop"
			case s.Tok == token.CONTINUE && loop == 0:
				reason = "loop body continues early"
			}
		case *ast.BlockStmt:
			for _, st := range s.List {
				walk(st, loop, sw)
			}
		case *ast.IfStmt:
			if s.Init != nil {
				walk(s.Init, loop, sw)
			}
			walk(s.Body, loop, sw)
			if s.Else != nil {
				walk(s.Else, loop, sw)
			}
		case *ast.ForStmt:
			walk(s.Body, loop+1, sw)
		case *ast.RangeStmt:
			walk(s.Body, loop+1, sw)
		case *ast.SwitchStmt:
			walk(s.Body, loop, sw+1)
		case *ast.TypeSwitchStmt:
			walk(s.Body, loop, sw+1)
		case *ast.SelectStmt:
			walk(s.Body, loop, sw+1)
		case *ast.CaseClause:
			for _, st := range s.Body {
				walk(st, loop, sw)
			}
		case *ast.CommClause:
			for _, st := range s.Body {
				walk(st, loop, sw)
			}
		case *ast.LabeledStmt:
			walk(s.Stmt, loop, sw)
		}
	}
	for _, st := range body.List {
		walk(st, 0, 0)
	}
	return reason
}

// block rewrites a block's statements, inserts any diagnostic pragmas
// whose position falls between two of its statements, and applies
// //xpl:range pragmas to the loops they precede.
func (r *rewriter) block(b *ast.BlockStmt) {
	var out []ast.Stmt
	for _, s := range b.List {
		for _, d := range r.diags {
			if !d.consumed && d.pos > b.Lbrace && d.pos < s.Pos() {
				d.consumed = true
				out = append(out, r.diagStmt(d))
			}
		}
		if rp := r.pendingRange(b.Lbrace, s.Pos()); rp != nil {
			rp.consumed = true
			if fs, ok := s.(*ast.ForStmt); ok {
				out = append(out, r.rangeFor(rp, fs)...)
				out = append(out, s)
				continue
			}
			r.errf(rp.pos, "//xpl:range must immediately precede a for statement")
		}
		r.stmt(s)
		out = append(out, s)
	}
	for _, d := range r.diags {
		if !d.consumed && d.pos > b.Lbrace && d.pos < b.Rbrace {
			d.consumed = true
			out = append(out, r.diagStmt(d))
		}
	}
	b.List = out
}

// diagStmt builds the inserted diagnostic call:
//
//	fn(verbatim..., xplrt.ExpandAll(xplrt.Arg(v, "v"), ...)...)
func (r *rewriter) diagStmt(d *diagPragma) ast.Stmt {
	args := append([]ast.Expr{}, d.verbatim...)
	if len(d.expanded) > 0 {
		r.usedRuntime = true
		var expandArgs []ast.Expr
		for _, v := range d.expanded {
			var name bytes.Buffer
			if err := format.Node(&name, token.NewFileSet(), v); err != nil {
				name.Reset()
				name.WriteString("arg")
			}
			expandArgs = append(expandArgs, &ast.CallExpr{
				Fun: &ast.SelectorExpr{
					X:   ast.NewIdent(r.opt.RuntimeAlias),
					Sel: ast.NewIdent("Arg"),
				},
				Args: []ast.Expr{v, &ast.BasicLit{
					Kind:  token.STRING,
					Value: fmt.Sprintf("%q", name.String()),
				}},
			})
		}
		args = append(args, &ast.CallExpr{
			Fun: &ast.SelectorExpr{
				X:   ast.NewIdent(r.opt.RuntimeAlias),
				Sel: ast.NewIdent("ExpandAll"),
			},
			Args: expandArgs,
		})
		return &ast.ExprStmt{X: &ast.CallExpr{
			Fun:      d.fn,
			Args:     args,
			Ellipsis: token.Pos(1), // pass the expanded slice variadically
		}}
	}
	return &ast.ExprStmt{X: &ast.CallExpr{Fun: d.fn, Args: args}}
}

// addImport inserts the runtime import into the file. Source that uses
// the scope API (//xpl:scope functions name *xplrt.DeviceScope) already
// imports the runtime; if it is present under the alias the emitted
// calls use, nothing is inserted.
func addImport(f *ast.File, alias, path string) {
	quoted := fmt.Sprintf("%q", path)
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.IMPORT {
			continue
		}
		for _, s := range gd.Specs {
			is, ok := s.(*ast.ImportSpec)
			if !ok || is.Path.Value != quoted {
				continue
			}
			name := path[strings.LastIndex(path, "/")+1:]
			if is.Name != nil {
				name = is.Name.Name
			}
			if name == alias {
				return
			}
		}
	}
	spec := &ast.ImportSpec{
		Name: ast.NewIdent(alias),
		Path: &ast.BasicLit{Kind: token.STRING, Value: quoted},
	}
	for _, d := range f.Decls {
		if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.IMPORT {
			gd.Specs = append(gd.Specs, spec)
			if len(gd.Specs) > 1 {
				gd.Lparen = gd.Pos() // force parenthesized form
			}
			return
		}
	}
	f.Decls = append([]ast.Decl{&ast.GenDecl{Tok: token.IMPORT, Specs: []ast.Spec{spec}}}, f.Decls...)
}
