package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
)

// listPackage is the subset of `go list -json` output the driver consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Export     string
	Module     *struct {
		Path string
		Main bool
	}
	Error *struct {
		Err string
	}
}

// Load resolves patterns (e.g. "./...") with the go tool, parses every
// matched module package from source, and type-checks it against compiled
// export data for its dependencies. It is the stdlib-only replacement for
// golang.org/x/tools/go/packages: `go list -deps -export -json` supplies
// package metadata plus export-data files, go/parser and go/types do the
// rest.
func Load(dir string, patterns []string) ([]*Pass, error) {
	targets, exports, err := listTargets(dir, patterns)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})

	passes := make([]*Pass, 0, len(targets))
	for _, t := range targets {
		pass, err := checkPackage(fset, imp, t)
		if err != nil {
			return nil, err
		}
		passes = append(passes, pass)
	}
	return passes, nil
}

// listTargets runs `go list -deps -export -json`, returning the module
// packages to analyze (sorted by import path) and the export-data file of
// every resolved package.
func listTargets(dir string, patterns []string) ([]listPackage, map[string]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-deps", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list %v: %w\n%s", patterns, err, stderr.String())
	}

	exports := make(map[string]string)
	var targets []listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("decode go list output: %w", err)
		}
		if p.Error != nil {
			return nil, nil, fmt.Errorf("load %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.Module != nil && !p.Standard && !p.DepOnly {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })
	return targets, exports, nil
}

// checkPackage parses and type-checks one module package from source.
func checkPackage(fset *token.FileSet, imp types.Importer, t listPackage) (*Pass, error) {
	var files []*ast.File
	for _, name := range t.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", name, err)
		}
		files = append(files, f)
	}
	info := NewInfo()
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	pkg, err := conf.Check(t.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", t.ImportPath, err)
	}
	return &Pass{Fset: fset, Files: files, Pkg: pkg, Info: info}, nil
}

// NewInfo allocates the full set of type-checker fact tables the analyzers
// consume.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// Run executes the analyzer suite over every pass as one module — summaries
// and the module analyzers see all packages together — and returns all
// surviving findings in deterministic order.
func Run(passes []*Pass) []Finding {
	return NewModule(passes).Run()
}
