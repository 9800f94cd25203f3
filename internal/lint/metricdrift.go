package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// metricdrift keeps the health counters honest. A counter that exists but
// is never incremented, or is incremented but never surfaced, lies to every
// dashboard reading it — and both failure modes have historically appeared
// exactly when a new drop reason or wire fault was added. Four rules:
//
//  1. taxonomy totals: every integer field of a struct with a Total()
//     method is summed inside Total() — a drop reason cannot be invisible
//     to the aggregate the tests assert on.
//  2. taxonomy feed: every such field is also written somewhere in the
//     module — a reason nothing ever increments is dead weight or a
//     forgotten wiring.
//  3. counter rot: every sync/atomic counter field of a struct in the
//     broker or fabric packages is both mutated (Add/Store/Swap/CAS) and
//     observed (Load) somewhere in the module.
//  4. snapshot parity: a conversion method on a *Metrics-named struct that
//     returns another struct as a single composite literal must consume
//     every integer field of its receiver — a counter silently dropped in
//     the conversion (fabric.Metrics → broker.WireMetrics) vanishes from
//     cluster health while still costing an atomic on the hot path.
//
// Rules 1 and 4 are per-package (the Total method and the conversion body
// live with the struct); rules 2 and 3 need the module-wide field-use index
// carried by PkgFacts, so they run as a module analyzer.

// TaxonomyField is one integer field of a Total()-bearing struct.
type TaxonomyField struct {
	// Struct is the owning type as pkg.Name.
	Struct string
	// Field is the field name.
	Field string
	// Pos is the field declaration site.
	Pos token.Position
	// InTotal records whether Total() reads the field.
	InTotal bool
}

// CounterField is one atomic (rule 3) or plain metric (reserved) counter
// field of a broker/fabric struct.
type CounterField struct {
	Struct string
	Field  string
	Pos    token.Position
}

// FieldUse aggregates how one pkg.Struct.Field is touched in one package.
type FieldUse struct {
	// Field is the pkg.Struct.Field key.
	Field string
	// Writes counts plain assignments, composite-literal bindings, and
	// atomic mutations (Add/Store/Swap/CompareAndSwap).
	Writes int
	// Reads counts plain reads and atomic Loads.
	Reads int
}

// metricPackages are the packages whose counter structs rules 2–4 govern.
// Identified by package name, structurally, like every other project-type
// match in the suite.
func isMetricPackage(name string) bool {
	return name == "broker" || name == "fabric"
}

// ---------------------------------------------------------------------------
// Collection (fresh passes).

// collectMetricFacts fills f with the package's taxonomy fields, atomic
// counter fields, and field-use index.
func collectMetricFacts(p *Pass, f *PkgFacts) {
	collectTaxonomies(p, f)
	collectCounters(p, f)
	collectFieldUses(p, f)
}

// collectTaxonomies finds structs with a Total() method and records every
// integer field, marking the ones Total() reads.
func collectTaxonomies(p *Pass, f *PkgFacts) {
	// First index the Total() methods by receiver type name.
	totals := make(map[string]*ast.FuncDecl)
	for _, file := range p.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "Total" || fd.Recv == nil || fd.Body == nil {
				continue
			}
			obj, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if named := derefNamed(recvOfMethod(obj)); named != nil {
				totals[named.Obj().Name()] = fd
			}
		}
	}
	if len(totals) == 0 {
		return
	}
	for _, file := range p.Files {
		for _, d := range file.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				td, ok := totals[ts.Name.Name]
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				read := fieldsReadIn(p, td.Body, ts.Name.Name)
				structKey := p.Pkg.Name() + "." + ts.Name.Name
				for _, fieldName := range intFieldNames(p, st) {
					f.Taxonomies = append(f.Taxonomies, TaxonomyField{
						Struct:  structKey,
						Field:   fieldName.Name,
						Pos:     p.position(fieldName.Pos()),
						InTotal: read[fieldName.Name],
					})
				}
			}
		}
	}
}

// collectCounters records every sync/atomic integer field of every struct
// declared in a metric package (broker, fabric).
func collectCounters(p *Pass, f *PkgFacts) {
	if !isMetricPackage(p.Pkg.Name()) {
		return
	}
	for _, file := range p.Files {
		for _, d := range file.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				structKey := p.Pkg.Name() + "." + ts.Name.Name
				for _, field := range st.Fields.List {
					tv, ok := p.Info.Types[field.Type]
					if !ok || !isAtomicCounterType(tv.Type) {
						continue
					}
					for _, name := range field.Names {
						f.Counters = append(f.Counters, CounterField{
							Struct: structKey,
							Field:  name.Name,
							Pos:    p.position(name.Pos()),
						})
					}
				}
			}
		}
	}
}

// isAtomicCounterType matches sync/atomic's integer counter types.
func isAtomicCounterType(t types.Type) bool {
	return isNamedType(t, "atomic", "Int64") || isNamedType(t, "atomic", "Uint64") ||
		isNamedType(t, "atomic", "Int32") || isNamedType(t, "atomic", "Uint32")
}

// intFieldNames returns the named integer-kind fields of a struct literal
// type (embedded and non-integer fields skipped).
func intFieldNames(p *Pass, st *ast.StructType) []*ast.Ident {
	var out []*ast.Ident
	for _, field := range st.Fields.List {
		tv, ok := p.Info.Types[field.Type]
		if !ok || !isIntegerKind(tv.Type) {
			continue
		}
		out = append(out, field.Names...)
	}
	return out
}

func isIntegerKind(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// fieldsReadIn collects the field names of the named struct read anywhere
// in body (selector expressions resolving to its fields).
func fieldsReadIn(p *Pass, body *ast.BlockStmt, typeName string) map[string]bool {
	read := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s, ok := p.Info.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return true
		}
		if named := derefNamed(s.Recv()); named != nil && named.Obj().Name() == typeName {
			read[sel.Sel.Name] = true
		}
		return true
	})
	return read
}

// collectFieldUses walks the whole package recording reads and writes of
// struct fields, keyed pkg.Struct.Field. Only fields of types the module
// rules could care about are worth indexing, but filtering here would
// couple collection to the rule set; the index stays small in practice.
func collectFieldUses(p *Pass, f *PkgFacts) {
	uses := make(map[string]*FieldUse)
	use := func(key string) *FieldUse {
		u, ok := uses[key]
		if !ok {
			u = &FieldUse{Field: key}
			uses[key] = u
		}
		return u
	}

	// fieldKeyOf resolves a selector to its pkg.Struct.Field key, or "".
	fieldKeyOf := func(sel *ast.SelectorExpr) string {
		s, ok := p.Info.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return ""
		}
		named := derefNamed(s.Recv())
		if named == nil || named.Obj().Pkg() == nil {
			return ""
		}
		return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + sel.Sel.Name
	}

	for _, file := range p.Files {
		// Mark assignment targets so the generic selector walk below can
		// classify them as writes, and atomic-call receivers so it does not
		// double-count them as plain reads.
		writes := make(map[*ast.SelectorExpr]bool)
		atomicRecv := make(map[*ast.SelectorExpr]bool)
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
						writes[sel] = true
					}
				}
			case *ast.IncDecStmt:
				if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
					writes[sel] = true
				}
			case *ast.CompositeLit:
				tv, ok := p.Info.Types[n]
				if !ok {
					return true
				}
				named := derefNamed(tv.Type)
				if named == nil || named.Obj().Pkg() == nil {
					return true
				}
				if _, ok := named.Underlying().(*types.Struct); !ok {
					return true
				}
				structKey := named.Obj().Pkg().Name() + "." + named.Obj().Name()
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							use(structKey+"."+id.Name).Writes++
						}
					}
				}
			case *ast.CallExpr:
				// Atomic mutations and loads: c.field.Add(1) etc.
				f := calleeFunc(p.Info, n)
				if f == nil || f.Pkg() == nil || f.Pkg().Name() != "atomic" {
					return true
				}
				sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				recv, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				key := fieldKeyOf(recv)
				if key == "" {
					return true
				}
				switch f.Name() {
				case "Add", "Store", "Swap", "CompareAndSwap":
					atomicRecv[recv] = true
					use(key).Writes++
				case "Load":
					atomicRecv[recv] = true
					use(key).Reads++
				}
			}
			return true
		})
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if atomicRecv[sel] {
				return true // already classified by the atomic-call handler
			}
			key := fieldKeyOf(sel)
			if key == "" {
				return true
			}
			if writes[sel] {
				use(key).Writes++
			} else {
				use(key).Reads++
			}
			return true
		})
	}

	keys := make([]string, 0, len(uses))
	for k := range uses {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		f.FieldUses = append(f.FieldUses, *uses[k])
	}
}

// ---------------------------------------------------------------------------
// Per-package rule: snapshot parity.

// runMetricdriftPkg checks rule 4 on one package: a method on a
// *Metrics-named struct whose body is `return T{...}` must read every
// integer field of its receiver inside the literal.
func runMetricdriftPkg(p *Pass) {
	for _, file := range p.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || len(fd.Body.List) == 0 {
				continue
			}
			obj, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			recv := derefNamed(recvOfMethod(obj))
			if recv == nil || !strings.Contains(recv.Obj().Name(), "Metrics") {
				continue
			}
			ret, ok := fd.Body.List[len(fd.Body.List)-1].(*ast.ReturnStmt)
			if !ok || len(ret.Results) != 1 {
				continue
			}
			lit, ok := ast.Unparen(ret.Results[0]).(*ast.CompositeLit)
			if !ok {
				continue
			}
			tv, ok := p.Info.Types[lit]
			if !ok {
				continue
			}
			target := derefNamed(tv.Type)
			if target == nil {
				continue
			}
			if _, ok := target.Underlying().(*types.Struct); !ok {
				continue
			}
			checkSnapshotParity(p, fd, lit, recv, target)
		}
	}
}

// checkSnapshotParity reports receiver counter fields the conversion
// literal never reads.
func checkSnapshotParity(p *Pass, fd *ast.FuncDecl, lit *ast.CompositeLit, recv, target *types.Named) {
	st, ok := recv.Underlying().(*types.Struct)
	if !ok {
		return
	}
	read := make(map[string]bool)
	ast.Inspect(lit, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s, ok := p.Info.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return true
		}
		if named := derefNamed(s.Recv()); named != nil && named.Obj() == recv.Obj() {
			read[sel.Sel.Name] = true
		}
		return true
	})
	// Only flag conversions that clearly carry counters across: require
	// that most receiver fields are already consumed, so constructors that
	// merely mention a Metrics type stay out of scope.
	total, consumed := 0, 0
	var missing []string
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Embedded() || !isIntegerKind(f.Type()) {
			continue
		}
		total++
		if read[f.Name()] {
			consumed++
		} else {
			missing = append(missing, f.Name())
		}
	}
	if total == 0 || consumed*2 <= total || len(missing) == 0 {
		return
	}
	p.Reportf(fd.Name.Pos(), "metrics conversion %s.%s → %s drops counter field(s) %s; carry them across or drop them from %s",
		recv.Obj().Name(), fd.Name.Name, target.Obj().Name(), strings.Join(missing, ", "), recv.Obj().Name())
}

// ---------------------------------------------------------------------------
// Module rules: taxonomy totals/feed and counter rot.

// runMetricdrift applies rules 1–3 over the merged facts of every package.
func runMetricdrift(m *Module) {
	reads := make(map[string]int)
	writes := make(map[string]int)
	var taxonomies []TaxonomyField
	var counters []CounterField
	for _, p := range m.Passes {
		for _, u := range p.facts.FieldUses {
			reads[u.Field] += u.Reads
			writes[u.Field] += u.Writes
		}
		taxonomies = append(taxonomies, p.facts.Taxonomies...)
		counters = append(counters, p.facts.Counters...)
	}

	sort.Slice(taxonomies, func(i, j int) bool { return posBefore(taxonomies[i].Pos, taxonomies[j].Pos) })
	sort.Slice(counters, func(i, j int) bool { return posBefore(counters[i].Pos, counters[j].Pos) })

	for _, t := range taxonomies {
		key := t.Struct + "." + t.Field
		if !t.InTotal {
			m.reportf(t.Pos, "taxonomy field %s is not summed in %s.Total(); every reason must be visible in the aggregate", key, t.Struct)
		}
		if writes[key] == 0 {
			m.reportf(t.Pos, "taxonomy field %s is never written anywhere in the module; wire it up or remove the reason", key)
		}
	}
	for _, c := range counters {
		key := c.Struct + "." + c.Field
		switch {
		case writes[key] == 0:
			m.reportf(c.Pos, "atomic counter %s is never incremented anywhere in the module; it reports a permanent zero", key)
		case reads[key] == 0:
			m.reportf(c.Pos, "atomic counter %s is incremented but never read anywhere in the module; surface it in a metrics snapshot or remove it", key)
		}
	}
}
