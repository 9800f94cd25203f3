package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the whole-module layer of xt-lint. The original suite ran
// each analyzer over one package at a time; the invariants it guards have
// outgrown that scope — a store reference acquired in the broker may be
// released by a helper in another package, and a deadlock is by definition a
// property of the union of every function's locking behaviour. Module ties
// the per-package Passes together:
//
//   - it computes a FuncSummary for every function in the module (refs
//     released per parameter, locks acquired, lock state at each call site)
//     and fixpoints the transitive parts, so refbalance can see through
//     documented hand-offs without //lint:owns escapes;
//   - it runs the module-scope analyzers (lockorder, metricdrift) over the
//     merged facts of all packages;
//   - it applies //lint:ignore suppression uniformly, including to module
//     findings, which can land in any package.
//
// Everything a module analyzer consumes is carried by PkgFacts, which holds
// positions rather than AST nodes, so the module-wide analyses never need
// another package's syntax tree or type information.

// Module aggregates the per-package passes of one lint run.
type Module struct {
	// Passes are the parsed and type-checked packages.
	Passes []*Pass

	// sums indexes every known function summary by funcKey.
	sums map[string]*FuncSummary

	findings []Finding // module-analyzer findings, position-addressed
	current  string    // module analyzer currently running
}

// NewModule wires passes into a module run.
func NewModule(passes []*Pass) *Module {
	m := &Module{Passes: passes, sums: make(map[string]*FuncSummary)}
	for _, p := range passes {
		p.mod = m
	}
	return m
}

// reportf records a module-analyzer finding at an absolute position.
// Module analyzers work on facts, which carry token.Position
// rather than token.Pos, so reporting bypasses the FileSet.
func (m *Module) reportf(pos token.Position, format string, args ...any) {
	m.findings = append(m.findings, Finding{
		Pos:      pos,
		Analyzer: m.current,
		Message:  fmt.Sprintf(format, args...),
	})
}

// summary returns the known summary for a function key, or nil.
func (m *Module) summary(key string) *FuncSummary {
	if m == nil {
		return nil
	}
	return m.sums[key]
}

// allSummaries returns every summary in deterministic key order.
func (m *Module) allSummaries() []*FuncSummary {
	keys := make([]string, 0, len(m.sums))
	for k := range m.sums {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*FuncSummary, 0, len(keys))
	for _, k := range keys {
		out = append(out, m.sums[k])
	}
	return out
}

// Run executes the full suite — directive validation, fact collection, the
// per-package analyzers, and the module analyzers — and returns all
// surviving findings in deterministic order.
func (m *Module) Run() []Finding {
	// Directives first: fact collection and suppression both read them.
	for _, p := range m.Passes {
		p.directives = parseDirectives(p.Fset, p.Files)
		validateDirectives(p)
	}

	// Collect per-package facts (lock behaviour, metric decls and uses) and
	// fixpoint the interprocedural summaries.
	for _, p := range m.Passes {
		p.facts = collectFacts(p)
	}
	m.indexSummaries()
	fixpointReleases(m)

	// Per-package analyzers, summary-aware where it matters (refbalance).
	for _, p := range m.Passes {
		for _, a := range Analyzers() {
			if a.Run != nil {
				p.current = a.Name
				a.Run(p)
			}
		}
		p.current = ""
	}

	// Module analyzers over the merged facts.
	for _, a := range Analyzers() {
		if a.RunModule != nil {
			m.current = a.Name
			a.RunModule(m)
		}
	}
	m.current = ""

	// Suppression. Per-package findings answer to their own directives;
	// module findings can land in any package, so they answer to the union
	// of every package's directives.
	var all []Finding
	var directives []directive
	for _, p := range m.Passes {
		all = append(all, suppress(p.findings, p.directives)...)
		directives = append(directives, p.directives...)
	}
	all = append(all, suppress(m.findings, directives)...)
	sortFindings(all)
	return all
}

// indexSummaries merges every package's summaries into the module index.
func (m *Module) indexSummaries() {
	for _, p := range m.Passes {
		for _, s := range p.facts.Summaries {
			m.sums[s.Key] = s
		}
	}
}

// sortFindings orders findings by file, line, analyzer — the report order
// CI output and the golden tests pin.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].Pos.Filename != fs[j].Pos.Filename {
			return fs[i].Pos.Filename < fs[j].Pos.Filename
		}
		if fs[i].Pos.Line != fs[j].Pos.Line {
			return fs[i].Pos.Line < fs[j].Pos.Line
		}
		if fs[i].Analyzer != fs[j].Analyzer {
			return fs[i].Analyzer < fs[j].Analyzer
		}
		return fs[i].Message < fs[j].Message
	})
}

// ---------------------------------------------------------------------------
// Per-package fact collection.

// PkgFacts is everything the module analyzers need to know about one
// package, decoupled from its AST and type information: every position is a
// token.Position, so a module analyzer can report into any package.
type PkgFacts struct {
	// ImportPath identifies the package.
	ImportPath string
	// Summaries are the per-function interprocedural summaries.
	Summaries []*FuncSummary
	// Taxonomies describe integer fields of structs with a Total() method.
	Taxonomies []TaxonomyField
	// Counters describe atomic counter fields of broker/fabric structs.
	Counters []CounterField
	// MetricInts describe plain integer fields of broker/fabric structs
	// whose name marks them as metrics snapshots.
	MetricInts []CounterField
	// FieldUses aggregate reads and writes of the fields above, keyed by
	// pkg.Struct.Field.
	FieldUses []FieldUse
}

// collectFacts computes the facts of one pass: function summaries (lock
// behaviour filled in here, release behaviour fixpointed afterwards) and
// metric declarations and field uses.
func collectFacts(p *Pass) *PkgFacts {
	f := &PkgFacts{ImportPath: p.Pkg.Path()}
	f.Summaries = collectSummaries(p)
	collectMetricFacts(p, f)
	return f
}

// funcKey names a function module-uniquely: pkgpath.Func for package
// functions, pkgpath.Type.Method for methods (pointer and value receivers
// collapse — the contract is per method name).
func funcKey(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if sig.Recv() != nil {
		named := derefNamed(sig.Recv().Type())
		if named == nil {
			return "" // interface or weird receiver: not summarizable
		}
		return f.Pkg().Path() + "." + named.Obj().Name() + "." + f.Name()
	}
	return f.Pkg().Path() + "." + f.Name()
}

// declKey names a function declaration in the package being analyzed.
func declKey(p *Pass, decl *ast.FuncDecl) string {
	obj, ok := p.Info.Defs[decl.Name].(*types.Func)
	if !ok {
		return ""
	}
	return funcKey(obj)
}

// position converts a token.Pos to the token.Position facts carry.
func (p *Pass) position(pos token.Pos) token.Position {
	return p.Fset.Position(pos)
}
