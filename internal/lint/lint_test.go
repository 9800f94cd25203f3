package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The golden-file harness loads hermetic packages from testdata/src (stub
// sync/time/net/... packages included, so no go-tool or GOROOT dependence),
// runs the full analyzer suite, and compares the findings against `// want`
// annotations in the sources:
//
//	expr // want "regexp"
//	expr // want "re1" "re2"          (two findings on this line)
//	expr // want[-1] "regexp"         (finding expected on the previous line;
//	                                   needed when a //lint: directive is the
//	                                   finding, since it swallows its own line)
//
// Each want must match exactly one finding at its target line, and every
// finding must be claimed by a want.

// tdImporter resolves imports from testdata/src by directory, type-checking
// stub packages on demand.
type tdImporter struct {
	fset *token.FileSet
	root string
	pkgs map[string]*types.Package
}

func (i *tdImporter) Import(path string) (*types.Package, error) {
	if p, ok := i.pkgs[path]; ok {
		return p, nil
	}
	files, err := parseDir(i.fset, filepath.Join(i.root, path))
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: i}
	pkg, err := conf.Check(path, i.fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("typecheck stub %s: %w", path, err)
	}
	i.pkgs[path] = pkg
	return pkg, nil
}

func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	return files, nil
}

// loadTestPackage type-checks testdata/src/<name> hermetically and returns a
// ready Pass.
func loadTestPackage(t *testing.T, name string) *Pass {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	imp := &tdImporter{fset: fset, root: root, pkgs: make(map[string]*types.Package)}
	files, err := parseDir(fset, filepath.Join(root, name))
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	info := NewInfo()
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(name, fset, files, info)
	if err != nil {
		t.Fatalf("typecheck %s: %v", name, err)
	}
	return &Pass{Fset: fset, Files: files, Pkg: pkg, Info: info}
}

// want is one expectation: a finding at file:line matching re.
type want struct {
	file string
	line int
	re   *regexp.Regexp
}

// wantRx matches one `want` clause inside a comment: an optional [offset]
// followed by one or more quoted regexps.
var wantRx = regexp.MustCompile(`want(?:\[(-?\d+)\])?((?:\s+"(?:[^"\\]|\\.)*")+)`)

var quotedRx = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// collectWants extracts every want annotation from the parsed files.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []want {
	t.Helper()
	var wants []want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.Contains(c.Text, "want") {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, m := range wantRx.FindAllStringSubmatch(c.Text, -1) {
					offset := 0
					if m[1] != "" {
						offset, _ = strconv.Atoi(m[1])
					}
					for _, q := range quotedRx.FindAllString(m[2], -1) {
						pat, err := strconv.Unquote(q)
						if err != nil {
							t.Fatalf("%s: bad want pattern %s: %v", pos, q, err)
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
						}
						wants = append(wants, want{file: pos.Filename, line: pos.Line + offset, re: re})
					}
				}
			}
		}
	}
	return wants
}

// checkWants matches findings against wants one-to-one.
func checkWants(t *testing.T, findings []Finding, wants []want) {
	t.Helper()
	claimed := make([]bool, len(findings))
	for _, w := range wants {
		matched := false
		for i, f := range findings {
			if claimed[i] || f.Pos.Filename != w.file || f.Pos.Line != w.line {
				continue
			}
			if w.re.MatchString(fmt.Sprintf("[%s] %s", f.Analyzer, f.Message)) {
				claimed[i] = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: no finding matching %q", w.file, w.line, w.re)
		}
	}
	for i, f := range findings {
		if !claimed[i] {
			t.Errorf("unexpected finding: %s", f)
		}
	}
}

// runGolden loads one testdata package and verifies its annotations.
func runGolden(t *testing.T, name string) {
	t.Helper()
	pass := loadTestPackage(t, name)
	findings := NewModule([]*Pass{pass}).Run()
	checkWants(t, findings, collectWants(t, pass.Fset, pass.Files))
}

func TestRefbalanceGolden(t *testing.T)  { runGolden(t, "refbalance") }
func TestBufbalanceGolden(t *testing.T)  { runGolden(t, "bufbalance") }
func TestLockholdGolden(t *testing.T)    { runGolden(t, "lockhold") }
func TestHeadershareGolden(t *testing.T) { runGolden(t, "headershare") }
func TestAtomicmixGolden(t *testing.T)   { runGolden(t, "atomicmix") }
func TestGoleakGolden(t *testing.T)      { runGolden(t, "broker") }

// TestDroptaxonomyGolden: ignored TryPut refusals and uncounted PopIf sheds
// are findings; bound errors and counted sheds pass.
func TestDroptaxonomyGolden(t *testing.T) { runGolden(t, "droptaxonomy") }

// TestTypeswitchGolden: switches over message.Type must be exhaustive or
// carry a deliberate default; aliases cover their value.
func TestTypeswitchGolden(t *testing.T) { runGolden(t, "typeswitch") }

// TestLockorderGolden: a seeded two-mutex cycle — one direct nesting edge,
// one edge through the call graph — is reported on both edges.
func TestLockorderGolden(t *testing.T) { runGolden(t, "lockorder") }

// TestMetricdriftGolden: unfed taxonomy fields, counters that rot (never
// incremented / never read), and a snapshot conversion that drops a counter.
func TestMetricdriftGolden(t *testing.T) { runGolden(t, "metricdrift") }

// TestCrossPackageModule runs two packages as one module: xmoda acquires
// references, xmodb releases them. The hand-off through xmodb.Consume must
// pass without //lint:owns; the hand-off through xmodb.Inspect (which
// releases nothing) is the deliberate cross-package leak that must be
// reported.
func TestCrossPackageModule(t *testing.T) {
	pa := loadTestPackage(t, "xmoda")
	pb := loadTestPackage(t, "xmodb")
	findings := NewModule([]*Pass{pa, pb}).Run()
	wants := collectWants(t, pa.Fset, pa.Files)
	wants = append(wants, collectWants(t, pb.Fset, pb.Files)...)
	checkWants(t, findings, wants)
}

// TestGoleakFaultinjectGolden: the goleak net extends to the fault-injection
// package, in both literal and named-callee forms.
func TestGoleakFaultinjectGolden(t *testing.T) { runGolden(t, "faultinject") }

// TestDirectiveValidationGolden covers satellite 3: //lint:ignore with a
// wrong analyzer name or a missing reason is itself a finding, and a
// malformed or mistargeted suppression does not silence anything.
func TestDirectiveValidationGolden(t *testing.T) { runGolden(t, "directives") }

// TestSuppressedGolden: well-formed ignores on the finding's line or the line
// above silence it completely.
func TestSuppressedGolden(t *testing.T) {
	pass := loadTestPackage(t, "suppressed")
	if findings := NewModule([]*Pass{pass}).Run(); len(findings) != 0 {
		for _, f := range findings {
			t.Errorf("finding survived a well-formed suppression: %s", f)
		}
	}
}

// TestFindingString pins the canonical report format the CI step greps for.
func TestFindingString(t *testing.T) {
	f := Finding{
		Pos:      token.Position{Filename: "pkg/file.go", Line: 42},
		Analyzer: "lockhold",
		Message:  "blocking time.Sleep while holding s.mu (locked at line 40)",
	}
	got := f.String()
	if want := "pkg/file.go:42: [lockhold] blocking time.Sleep while holding s.mu (locked at line 40)"; got != want {
		t.Errorf("Finding.String() = %q, want %q", got, want)
	}
}

// TestFindingsSorted: Module.Run output is deterministic — sorted by file,
// line, analyzer.
func TestFindingsSorted(t *testing.T) {
	pass := loadTestPackage(t, "lockhold")
	findings := NewModule([]*Pass{pass}).Run()
	if len(findings) < 2 {
		t.Fatalf("expected multiple findings, got %d", len(findings))
	}
	sorted := sort.SliceIsSorted(findings, func(i, j int) bool {
		if findings[i].Pos.Filename != findings[j].Pos.Filename {
			return findings[i].Pos.Filename < findings[j].Pos.Filename
		}
		if findings[i].Pos.Line != findings[j].Pos.Line {
			return findings[i].Pos.Line < findings[j].Pos.Line
		}
		return findings[i].Analyzer < findings[j].Analyzer
	})
	if !sorted {
		t.Error("findings are not sorted by file, line, analyzer")
	}
}

// TestKnownAnalyzers: the registry exposes all nine analyzers plus the
// directive pseudo-analyzer — ten suppressible names in all.
func TestKnownAnalyzers(t *testing.T) {
	known := KnownAnalyzers()
	for _, name := range []string{
		"refbalance", "lockhold", "headershare", "atomicmix", "goleak",
		"droptaxonomy", "lockorder", "typeswitch", "metricdrift", "directive",
	} {
		if !known[name] {
			t.Errorf("KnownAnalyzers() is missing %q", name)
		}
	}
	if len(known) != 10 {
		t.Errorf("KnownAnalyzers() has %d entries, want 10", len(known))
	}
}
