// Package lint implements xt-lint: a stdlib-only static analyzer that
// enforces the channel's concurrency and refcount invariants documented in
// DESIGN.md §5a/§5c. The Go compiler cannot check the discipline the
// zero-copy channel rests on — references released on every path, headers
// copied per destination, no blocking while a broker lock is held — so this
// package turns the contract into executable checks that run on every CI
// push.
//
// The driver (Load + Run, see driver.go) type-checks every package in the
// module with go/parser and go/types (no golang.org/x/tools dependency) and
// runs nine project-specific analyzers. Six are per-package:
//
//   - refbalance: every objectstore.Store.Get/Pin is matched by a Release on
//     all return paths of the enclosing function, unless the ownership
//     transfer is marked //lint:owns.
//   - lockhold: no blocking call (queue.Queue.Put/Get/GetTimeout, channel
//     send/recv, time.Sleep, net I/O, WaitGroup.Wait) while a sync.Mutex or
//     RWMutex acquired in the same function is held.
//   - headershare: no *message.Header escaping into a per-destination queue
//     send or goroutine capture — headers are copied per destination.
//   - atomicmix: structs bearing sync/atomic fields are never copied by
//     value, and no field mixes atomic.*Int64-style access with plain reads
//     or writes.
//   - goleak: every goroutine spawned in the broker, fabric, core, and
//     faultinject packages — literal or same-package named callee — observes
//     a stop signal (WaitGroup, done-channel, select, or a blocking call
//     that errors at shutdown).
//   - droptaxonomy: refused admissions and sheds stay visible — a TryPut
//     result is never discarded, and a function shedding via queue PopIf
//     increments a drop/shed counter.
//
// These look across package boundaries, most of them through per-function
// summaries (module.go, summary.go):
//
//   - refbalance (interprocedural part): a Get whose reference is released
//     by a callee — possibly in another package — is balanced without a
//     //lint:owns escape, and a //lint:owns on a provably balanced function
//     is itself a finding (stale escape).
//   - lockorder: the module-wide lock-acquisition graph (broker mutexes,
//     store shard locks, fabric peer locks, queue internals) is acyclic;
//     cycles are potential deadlocks. DESIGN.md §5c codifies the order.
//   - typeswitch: every switch over message.Type is exhaustive or carries a
//     deliberate default — adding a message class cannot silently bypass
//     Droppable()/weights-class routing.
//   - metricdrift: every Drops-taxonomy field is summed in Total() and
//     written somewhere; every broker/fabric atomic counter is incremented
//     and surfaced; metrics conversions don't silently drop counters.
//
// Findings are reported as `file:line: [analyzer] message` and can be
// suppressed with `//lint:ignore <analyzer> <reason>` on the finding's line
// or the line above it. A malformed suppression (unknown analyzer, missing
// reason) is itself a finding (analyzer "directive").
//
// The analyzers identify project types structurally — by package name and
// type/method name (e.g. a type Store with Get/Pin/Release methods in a
// package named "objectstore") — so the golden-file tests under testdata/src
// exercise them against small hermetic stub packages.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Finding is one analyzer report.
type Finding struct {
	// Pos locates the finding.
	Pos token.Position
	// Analyzer is the name of the analyzer that produced the finding (or
	// "directive" for malformed //lint: comments).
	Analyzer string
	// Message describes the violation.
	Message string
}

// String renders the finding in the canonical `file:line: [analyzer] message`
// form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// Analyzer is one executable invariant check. At least one of Run and
// RunModule is set; metricdrift sets both (its snapshot-parity rule is
// package-local, its counter-rot rules need the module view).
type Analyzer struct {
	// Name is the analyzer's identifier, used in reports and //lint:ignore
	// directives.
	Name string
	// Doc is a one-line description of the invariant checked.
	Doc string
	// Run reports findings for one type-checked package.
	Run func(*Pass)
	// RunModule reports findings over the merged facts of all packages,
	// fresh or cache-restored.
	RunModule func(*Module)
}

// DirectiveAnalyzer is the pseudo-analyzer name under which malformed
// //lint: directives are reported.
const DirectiveAnalyzer = "directive"

// Analyzers is the full analyzer suite in report order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		{Name: "refbalance", Doc: "objectstore Get/Pin matched by Release on all return paths", Run: runRefbalance},
		{Name: "lockhold", Doc: "no blocking call while a mutex acquired in the same function is held", Run: runLockhold},
		{Name: "headershare", Doc: "headers are copied per destination, never shared across queue sends or goroutines", Run: runHeadershare},
		{Name: "atomicmix", Doc: "atomic-bearing structs never copied by value; no mixed atomic/plain field access", Run: runAtomicmix},
		{Name: "goleak", Doc: "goroutines spawned in broker/fabric/core/faultinject observe a stop signal", Run: runGoleak},
		{Name: "droptaxonomy", Doc: "TryPut refusals and PopIf sheds are counted in the drop taxonomy", Run: runDroptaxonomy},
		{Name: "lockorder", Doc: "the module-wide lock-acquisition graph is acyclic (no potential deadlocks)", RunModule: runLockorder},
		{Name: "typeswitch", Doc: "every switch over message.Type is exhaustive or has a deliberate default", Run: runTypeswitch},
		{Name: "metricdrift", Doc: "taxonomy and metrics counters are fed, aggregated, and surfaced — nowhere rotten", Run: runMetricdriftPkg, RunModule: runMetricdrift},
	}
}

// KnownAnalyzers is the set of valid analyzer names for //lint:ignore.
func KnownAnalyzers() map[string]bool {
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	known[DirectiveAnalyzer] = true
	return known
}

// Pass carries one type-checked package through the analyzers.
type Pass struct {
	// Fset positions every node in Files.
	Fset *token.FileSet
	// Files are the package's parsed source files (comments included).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type-checker's fact tables for Files.
	Info *types.Info
	// directives are the parsed //lint: comments of Files.
	directives []directive

	// mod is the module run this pass belongs to; analyzers reach the
	// cross-package summaries through it.
	mod *Module
	// facts are the pass's collected facts (summaries, metric decls/uses) —
	// the module analyzers' input.
	facts *PkgFacts

	findings []Finding
	current  string // name of the analyzer currently running
}

// Reportf records a finding at pos for the running analyzer.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.reportAs(p.current, pos, format, args...)
}

func (p *Pass) reportAs(analyzer string, pos token.Pos, format string, args ...any) {
	p.findings = append(p.findings, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ---------------------------------------------------------------------------
// Shared type-identification helpers.
//
// Project types are matched structurally by package name + type name so the
// same analyzers run against the real module ("xingtian/internal/objectstore")
// and the hermetic golden-file stubs ("objectstore").

// calleeFunc resolves the function or method a call expression invokes, or
// nil for calls through function values, conversions, and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Package-qualified call (pkg.Func).
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// derefNamed strips pointers and returns the named type beneath t, or nil.
func derefNamed(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// isNamedType reports whether t (possibly behind a pointer) is the named
// type pkgName.typeName.
func isNamedType(t types.Type, pkgName, typeName string) bool {
	named := derefNamed(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Name() == pkgName && obj.Name() == typeName
}

// isMethodOn reports whether f is a method with one of the given names on
// the named type pkgName.typeName (value or pointer receiver).
func isMethodOn(f *types.Func, pkgName, typeName string, names ...string) bool {
	if f == nil {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	if !isNamedType(sig.Recv().Type(), pkgName, typeName) {
		// Interface methods: the receiver of a method selected from an
		// interface type is the interface itself; check it the same way.
		return false
	}
	return nameIn(f.Name(), names)
}

// isPkgFunc reports whether f is a package-level function with one of the
// given names in the package named pkgName.
func isPkgFunc(f *types.Func, pkgName string, names ...string) bool {
	if f == nil || f.Pkg() == nil {
		return false
	}
	if sig, ok := f.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return false
	}
	return f.Pkg().Name() == pkgName && nameIn(f.Name(), names)
}

// recvOfMethod returns the receiver type of method f, or nil.
func recvOfMethod(f *types.Func) types.Type {
	if f == nil {
		return nil
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}

// isMethodOnPkgType reports whether f is a method with one of the given
// names whose receiver is any named type (struct or interface) declared in a
// package named pkgName.
func isMethodOnPkgType(f *types.Func, pkgName string, names ...string) bool {
	recv := recvOfMethod(f)
	if recv == nil {
		return false
	}
	named := derefNamed(recv)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Name() == pkgName && nameIn(f.Name(), names)
}

func nameIn(name string, names []string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}

// exprString renders an expression for matching and messages (e.g. the ID
// argument of a Get against the argument of a later Release).
func exprString(e ast.Expr) string {
	return types.ExprString(e)
}

// funcScopes yields every function body in the file exactly once: FuncDecl
// bodies, and FuncLits that are not nested inside another yielded body are
// reached by the visitor itself. Analyzers that need fresh per-function
// state use this instead of a bare ast.Inspect.
func funcScopes(file *ast.File, visit func(body *ast.BlockStmt, decl *ast.FuncDecl)) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				visit(n.Body, n)
			}
			return false
		case *ast.FuncLit:
			// Package-level FuncLit (var initializer): treat as its own scope.
			visit(n.Body, nil)
			return false
		}
		return true
	})
}
