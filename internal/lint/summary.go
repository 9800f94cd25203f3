package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
)

// FuncSummary is the interprocedural contract of one function, as observed
// by the summary collector. It captures exactly the facts the module
// analyzers consume:
//
//   - ReleasesParams / FreesParams: parameter indices whose object-store
//     reference (resp. pooled buffer) the function releases on every exit
//     path. refbalance uses these to see a Get in one function matched by a
//     Release inside a callee, possibly in another package.
//   - Acquires / LockEdges / Calls: the function's direct lock behaviour —
//     which lock classes it takes, which it takes while already holding
//     another (a direct ordering edge), and which functions it calls with
//     locks held. lockorder closes these over the call graph to find
//     module-wide ordering cycles.
//
// Positions are token.Position, so a summary outlives the pass that
// computed it and module analyzers can report at any of its sites.
type FuncSummary struct {
	// Key is the module-unique function name (see funcKey).
	Key string
	// ReleasesParams lists parameter indices released on all exit paths.
	ReleasesParams []int
	// FreesParams lists []byte parameter indices freed (serialize.FreeBuf)
	// on all exit paths.
	FreesParams []int
	// Acquires are the lock classes this function locks directly.
	Acquires []LockSite
	// LockEdges are direct nested acquisitions: To locked while From held.
	LockEdges []LockEdge
	// Calls are resolved call sites, with the lock classes held at each.
	Calls []LockCall
}

// LockSite is one direct lock acquisition.
type LockSite struct {
	// Class identifies the lock (pkg.Type.field for mutex fields,
	// pkg.var for package-level mutexes, pkg.func.var for locals).
	Class string
	// Pos is where the Lock call appears.
	Pos token.Position
}

// LockEdge is a direct ordering constraint: To was locked at Pos while From
// was already held in the same function.
type LockEdge struct {
	From string
	To   string
	Pos  token.Position
}

// LockCall is a resolved call site annotated with the lock classes held
// when it executes. Calls with no locks held still matter: they are the
// call-graph edges the transitive acquire closure walks through.
type LockCall struct {
	// Callee is the funcKey of the invoked function.
	Callee string
	// Held are the lock classes held at the call, sorted.
	Held []string
	// Pos is the call position.
	Pos token.Position
}

// releasesParam reports whether the summary releases (buf=false) or frees
// (buf=true) parameter index i on all paths.
func (s *FuncSummary) releasesParam(i int, buf bool) bool {
	if s == nil {
		return false
	}
	list := s.ReleasesParams
	if buf {
		list = s.FreesParams
	}
	for _, p := range list {
		if p == i {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Summary collection.

// collectSummaries builds the summary skeleton for every named function in
// the package: the lock behaviour is final; ReleasesParams/FreesParams are
// filled in by fixpointReleases once every package's skeleton exists.
func collectSummaries(p *Pass) []*FuncSummary {
	var out []*FuncSummary
	for _, file := range p.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			key := declKey(p, fd)
			if key == "" {
				continue
			}
			s := &FuncSummary{Key: key}
			lw := &lockWalker{p: p, sum: s, owner: key}
			lw.walkStmts(fd.Body.List, map[string]token.Pos{})
			out = append(out, s)
			out = append(out, lw.anon...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// fixpointReleases computes ReleasesParams/FreesParams for every fresh
// function until no summary changes. The relation is monotone — recognizing
// a callee as releasing can only make more callers balanced — so iteration
// terminates; the bound guards against pathology.
func fixpointReleases(m *Module) {
	for iter := 0; iter < 32; iter++ {
		changed := false
		for _, p := range m.Passes {
			for _, file := range p.Files {
				for _, d := range file.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					key := declKey(p, fd)
					sum := m.sums[key]
					if sum == nil {
						continue
					}
					rel, frees := releasedParams(p, fd)
					if !equalInts(rel, sum.ReleasesParams) || !equalInts(frees, sum.FreesParams) {
						sum.ReleasesParams, sum.FreesParams = rel, frees
						changed = true
					}
				}
			}
		}
		if !changed {
			return
		}
	}
}

// releasedParams runs the refbalance path analysis with each named parameter
// treated as a pseudo-acquire held from the top of the body, and returns the
// indices that are released (resp. FreeBuf-freed) on every exit path.
// Variadic parameters are skipped: a caller's argument index does not map
// one-to-one onto them.
func releasedParams(p *Pass, fd *ast.FuncDecl) (rel, frees []int) {
	params := fd.Type.Params
	if params == nil || len(params.List) == 0 {
		return nil, nil
	}
	rb := &rbScope{p: p}
	rb.walkStmts(fd.Body.List, token.NoPos, false)
	if len(rb.releases) == 0 {
		return nil, nil
	}
	variadic := false
	if sig, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
		if s, ok := sig.Type().(*types.Signature); ok {
			variadic = s.Variadic()
		}
	}
	total := params.NumFields()
	implicitEnd := rb.implicitExit(fd.Body)
	idx := 0
	for _, field := range params.List {
		if len(field.Names) == 0 {
			idx++ // unnamed parameter cannot be released
			continue
		}
		for _, name := range field.Names {
			i := idx
			idx++
			if name.Name == "_" || (variadic && i == total-1) {
				continue
			}
			for _, buf := range []bool{false, true} {
				a := rbAcquire{pos: fd.Body.Pos(), effPos: fd.Body.Pos(), id: name.Name, buf: buf}
				if rb.balanced(a, implicitEnd) {
					if buf {
						frees = append(frees, i)
					} else {
						rel = append(rel, i)
					}
				}
			}
		}
	}
	return rel, frees
}

// balanced reports whether acquire a is matched on every exit path — the
// non-reporting core of rbScope.check.
func (rb *rbScope) balanced(a rbAcquire, implicitEnd token.Pos) bool {
	if rb.deferredReleaseFor(a) {
		return true
	}
	exits := rb.exitsFor(a, implicitEnd)
	if len(exits) == 0 {
		// No reachable exit (infinite loop): nothing ever leaves with the
		// reference, but nothing provably releases it either.
		return false
	}
	released := false
	for _, exit := range exits {
		if !rb.releasedBetween(a, exit.pos) {
			return false
		}
		released = true
	}
	return released
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Lock-behaviour walker.
//
// lockWalker mirrors lockhold's lexical, per-branch traversal, but instead
// of flagging blocking calls it records the function's locking facts into
// its FuncSummary: direct acquisitions (with their lock class), direct
// nested acquisitions (ordering edges), and every resolved call with the
// classes held at that moment. Goroutine and deferred function literals run
// in their own lock context, so they become separate anonymous summaries —
// their internal edges still count module-wide, but their acquisitions must
// not leak into the spawning function's transitive acquire set.

type lockWalker struct {
	p     *Pass
	sum   *FuncSummary
	owner string         // funcKey of the enclosing declaration, for local-lock classes
	anon  []*FuncSummary // summaries of goroutine/defer literals
}

func (lw *lockWalker) walkStmts(list []ast.Stmt, held map[string]token.Pos) {
	for _, s := range list {
		lw.walkStmt(s, held)
	}
}

func cloneHeld(h map[string]token.Pos) map[string]token.Pos {
	c := make(map[string]token.Pos, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

func (lw *lockWalker) walkStmt(s ast.Stmt, held map[string]token.Pos) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		lw.walkExpr(s.X, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			lw.walkExpr(e, held)
		}
		for _, e := range s.Lhs {
			lw.walkExpr(e, held)
		}
	case *ast.DeclStmt:
		lw.walkExpr(s, held)
	case *ast.DeferStmt:
		for _, a := range s.Call.Args {
			lw.walkExpr(a, held)
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			lw.anonScope(lit)
			return
		}
		// defer x.Unlock() keeps the lock held for the rest of the body;
		// defer f() with locks held at return is out of lexical reach.
	case *ast.GoStmt:
		for _, a := range s.Call.Args {
			lw.walkExpr(a, held)
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			lw.anonScope(lit)
			return
		}
		// go f(): f runs concurrently, not under the spawner's locks — it
		// is reached by lockorder through its own summary, with no held set.
	case *ast.SendStmt:
		lw.walkExpr(s.Chan, held)
		lw.walkExpr(s.Value, held)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			lw.walkExpr(e, held)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			lw.walkStmt(s.Init, held)
		}
		lw.walkExpr(s.Cond, held)
		lw.walkStmts(s.Body.List, cloneHeld(held))
		switch e := s.Else.(type) {
		case *ast.BlockStmt:
			lw.walkStmts(e.List, cloneHeld(held))
		case *ast.IfStmt:
			lw.walkStmt(e, cloneHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			lw.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			lw.walkExpr(s.Cond, held)
		}
		body := cloneHeld(held)
		lw.walkStmts(s.Body.List, body)
		if s.Post != nil {
			lw.walkStmt(s.Post, body)
		}
	case *ast.RangeStmt:
		lw.walkExpr(s.X, held)
		lw.walkStmts(s.Body.List, cloneHeld(held))
	case *ast.BlockStmt:
		lw.walkStmts(s.List, held)
	case *ast.LabeledStmt:
		lw.walkStmt(s.Stmt, held)
	case *ast.SwitchStmt:
		if s.Init != nil {
			lw.walkStmt(s.Init, held)
		}
		if s.Tag != nil {
			lw.walkExpr(s.Tag, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				lw.walkStmts(cc.Body, cloneHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				lw.walkStmts(cc.Body, cloneHeld(held))
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				if cc.Comm != nil {
					lw.walkStmt(cc.Comm, cloneHeld(held))
				}
				lw.walkStmts(cc.Body, cloneHeld(held))
			}
		}
	case *ast.IncDecStmt:
		lw.walkExpr(s.X, held)
	}
}

// anonScope analyzes a goroutine/defer/callback literal as its own summary
// with no locks held at entry.
func (lw *lockWalker) anonScope(lit *ast.FuncLit) {
	pos := lw.p.position(lit.Pos())
	s := &FuncSummary{Key: lw.owner + "$" + strconv.Itoa(pos.Line) + "_" + strconv.Itoa(pos.Column)}
	nested := &lockWalker{p: lw.p, sum: s, owner: lw.owner}
	nested.walkStmts(lit.Body.List, map[string]token.Pos{})
	lw.anon = append(lw.anon, s)
	lw.anon = append(lw.anon, nested.anon...)
}

func (lw *lockWalker) walkExpr(n ast.Node, held map[string]token.Pos) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			lw.anonScope(m)
			return false
		case *ast.CallExpr:
			lw.call(m, held)
		}
		return true
	})
}

func (lw *lockWalker) call(call *ast.CallExpr, held map[string]token.Pos) {
	f := calleeFunc(lw.p.Info, call)
	if f == nil {
		return
	}
	if isMethodOn(f, "sync", "Mutex", "Lock", "TryLock") ||
		isMethodOn(f, "sync", "RWMutex", "Lock", "RLock", "TryLock", "TryRLock") {
		class := lw.lockClass(call)
		if class == "" {
			return
		}
		pos := lw.p.position(call.Pos())
		lw.sum.Acquires = append(lw.sum.Acquires, LockSite{Class: class, Pos: pos})
		for from := range held {
			if from == class {
				continue // reacquiring the same class is lockhold's problem, not an ordering edge
			}
			lw.sum.LockEdges = append(lw.sum.LockEdges, LockEdge{From: from, To: class, Pos: pos})
		}
		held[class] = call.Pos()
		return
	}
	if isMethodOn(f, "sync", "Mutex", "Unlock") ||
		isMethodOn(f, "sync", "RWMutex", "Unlock", "RUnlock") {
		if class := lw.lockClass(call); class != "" {
			delete(held, class)
		}
		return
	}
	key := funcKey(f)
	if key == "" || f.Pkg() == nil {
		return
	}
	lw.sum.Calls = append(lw.sum.Calls, LockCall{
		Callee: key,
		Held:   sortedClasses(held),
		Pos:    lw.p.position(call.Pos()),
	})
}

// lockClass names the mutex a Lock/Unlock call operates on, instance-blind:
//
//	s.mu.Lock()      → pkg.Type.mu     (field of a named struct)
//	pkg.mu.Lock()    → pkg.mu          (package-level mutex)
//	mu.Lock()        → pkg.func.mu     (function-local mutex)
//	q.Lock()         → pkg.Type.<embedded> (embedded sync.Mutex)
//
// Two mutexes of the same class on different instances collapse: the
// ordering discipline is declared per class, which is conservative in the
// right direction for deadlock detection (a cycle on one class across two
// instances is still a latent deadlock unless an instance hierarchy exists,
// and that hierarchy belongs in DESIGN.md, not in the analyzer).
func (lw *lockWalker) lockClass(call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	recv := ast.Unparen(sel.X)
	switch x := recv.(type) {
	case *ast.SelectorExpr:
		// Field selection s.mu (possibly chained: b.store.mu).
		if s, ok := lw.p.Info.Selections[x]; ok {
			if named := derefNamed(s.Recv()); named != nil && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + x.Sel.Name
			}
			return ""
		}
		// Package-qualified variable pkg.Mu.
		if obj, ok := lw.p.Info.Uses[x.Sel]; ok && obj.Pkg() != nil {
			return obj.Pkg().Name() + "." + x.Sel.Name
		}
	case *ast.Ident:
		obj := lw.p.Info.Uses[x]
		if obj == nil || obj.Pkg() == nil {
			return ""
		}
		// Embedded mutex: the receiver is a named struct, the method is
		// promoted from sync.Mutex/RWMutex.
		if named := derefNamed(obj.Type()); named != nil && named.Obj().Pkg() != nil &&
			named.Obj().Pkg().Name() != "sync" {
			return named.Obj().Pkg().Name() + "." + named.Obj().Name() + ".<embedded>"
		}
		// Package-level mutex in the current package.
		if obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Name() + "." + x.Name
		}
		// Function-local mutex: class-per-declaration via the owner key.
		return shortKey(lw.owner) + "." + x.Name
	}
	return ""
}

// shortKey trims a funcKey's package path to its base name for human-facing
// lock classes ("xingtian/internal/broker.Broker.route" → "broker.Broker.route").
func shortKey(key string) string {
	slash := -1
	for i := 0; i < len(key); i++ {
		if key[i] == '/' {
			slash = i
		}
	}
	return key[slash+1:]
}

func sortedClasses(held map[string]token.Pos) []string {
	if len(held) == 0 {
		return nil
	}
	out := make([]string, 0, len(held))
	for k := range held {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
