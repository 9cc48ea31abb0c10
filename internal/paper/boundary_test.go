// Package paper holds the 2005 stacks the paper measures against (mono, the
// wire formats of the RMI and SOAP baselines in wirecodecs, and the
// calibrated profiles they run with) and the code that regenerates the
// paper's figures from them (figures): reproduction code the production
// runtime must never depend on. This test is the boundary.
package paper

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// shippedRoots are the packages that ship: the public API and the node
// binary. What they link is computed from their imports, not listed.
var shippedRoots = []string{"parc", "cmd/parcnode"}

// paperTrees are the import paths production code may not import, nor
// anything below them: internal/paper, and the two baseline stacks that
// have not moved there yet.
var paperTrees = []string{
	"repro/internal/paper",
	"repro/internal/rmi",
	"repro/internal/mpi",
}

// paperCode is everything the shipped runtime may not link: the paper
// stacks, the endpoint cost model they are calibrated with, the Mono
// thread pool of the Fig. 9 farm, and the paper's workloads.
var paperCode = append([]string{
	"repro/internal/cost",
	"repro/internal/threadpool",
	"repro/internal/sieve",
	"repro/internal/jgf",
}, paperTrees...)

// importsOf returns the import paths of every non-test Go file in dir.
func importsOf(t *testing.T, dir string) map[string]string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatalf("no Go files in %s: the package list is stale", dir)
	}
	imports := map[string]string{}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			imports[path] = file
		}
	}
	return imports
}

// repoRoot is the repository root, relative to this package.
func repoRoot(t *testing.T) string {
	t.Helper()
	root := filepath.Join("..", "..")
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repository root not at %s: %v", root, err)
	}
	return root
}

// shippedImports walks the in-module import closure of shippedRoots and
// returns, for every package it reaches (relative to the repository root),
// the import paths of its non-test files.
func shippedImports(t *testing.T) map[string]map[string]string {
	t.Helper()
	root := repoRoot(t)
	closure := map[string]map[string]string{}
	queue := append([]string(nil), shippedRoots...)
	for len(queue) > 0 {
		pkg := queue[0]
		queue = queue[1:]
		if closure[pkg] != nil {
			continue
		}
		closure[pkg] = importsOf(t, filepath.Join(root, pkg))
		for path := range closure[pkg] {
			if rel, ok := strings.CutPrefix(path, "repro/"); ok {
				queue = append(queue, rel)
			}
		}
	}
	return closure
}

// checkShipped fails for every import, by a package the shipped runtime
// links, of trees or anything below them.
func checkShipped(t *testing.T, trees []string, why string) {
	t.Helper()
	for _, imports := range shippedImports(t) {
		for path, file := range imports {
			for _, tree := range trees {
				if path == tree || strings.HasPrefix(path, tree+"/") {
					t.Errorf("%s imports %s: %s", file, path, why)
				}
			}
		}
	}
}

func TestProductionDoesNotImportPaperStacks(t *testing.T) {
	checkShipped(t, paperTrees, "production code must not depend on the paper stacks")
}

// TestShippedRuntimeLinksNoPaperCode holds what parc and cmd/parcnode link
// to the runtime: the paper's stacks, cost model, thread pool and workloads
// stay with the figures, which hand the cost model to a cluster as a
// transport.Network.
func TestShippedRuntimeLinksNoPaperCode(t *testing.T) {
	checkShipped(t, paperCode, "the shipped runtime links no paper code")
}

// shippedFileMax is the most lines a non-test file of the shipped runtime
// may have. A file past it holds more than one responsibility: split it.
const shippedFileMax = 700

// TestShippedFilesStayUnder700Lines holds every non-test file of the
// shipped runtime to shippedFileMax lines, and names each one over it.
func TestShippedFilesStayUnder700Lines(t *testing.T) {
	root := repoRoot(t)
	for pkg := range shippedImports(t) {
		files, err := filepath.Glob(filepath.Join(root, pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(data), "\n"); n > shippedFileMax {
				t.Errorf("%s is %d lines, over %d: split it by responsibility", file, n, shippedFileMax)
			}
		}
	}
}

// TestShippedRuntimeHasOneStats holds the shipped runtime to one set of
// counters: every count lives in a node's metrics.Registry, and the one
// type named Stats is internal/core's view of it (parc.Stats is an alias of
// it, not a type of its own).
func TestShippedRuntimeHasOneStats(t *testing.T) {
	root := repoRoot(t)
	for pkg := range shippedImports(t) {
		files, err := filepath.Glob(filepath.Join(root, pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				d, ok := decl.(*ast.GenDecl)
				if !ok || d.Tok != token.TYPE {
					continue
				}
				for _, spec := range d.Specs {
					ts := spec.(*ast.TypeSpec)
					if ts.Name.Name == "Stats" && !ts.Assign.IsValid() && pkg != "internal/core" {
						t.Errorf("%s declares a type Stats: count into the node's metrics.Registry, which core.Stats reads", file)
					}
				}
			}
		}
	}
}

// layers is the production call path, top first: a remote call goes down
// it, and no package may import one above it.
var layers = []string{
	"parc",
	"internal/cluster",
	"internal/core",
	"internal/remoting",
	"internal/dispatch",
	"internal/wire",
	"internal/transport",
}

// leaves are the packages every layer may use, which import no package of
// this module themselves.
var leaves = []string{
	"internal/errs",
	"internal/ctxwait",
	"internal/metrics",
}

// TestProductionLayers holds the import graph to the layer order: each
// layer imports only layers below it (and anything off the list), and the
// leaves import nothing of the module.
func TestProductionLayers(t *testing.T) {
	root := repoRoot(t)
	for i, pkg := range layers {
		for path, file := range importsOf(t, filepath.Join(root, pkg)) {
			for _, above := range layers[:i+1] {
				if path == "repro/"+above {
					t.Errorf("%s imports %s: %s sits below it", file, path, pkg)
				}
			}
		}
	}
	for _, pkg := range leaves {
		for path, file := range importsOf(t, filepath.Join(root, pkg)) {
			if path == "repro" || strings.HasPrefix(path, "repro/") {
				t.Errorf("%s imports %s: %s is a leaf", file, path, pkg)
			}
		}
	}
}

// TestWireSpeaksOneFormat holds internal/wire to the runtime's one format:
// the paper's other codecs, and the interface that lines them up, live in
// internal/paper/wirecodecs, and the decoder's modes carry no dialect.
func TestWireSpeaksOneFormat(t *testing.T) {
	dir := filepath.Join(repoRoot(t), "internal", "wire")
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	moved := map[string]bool{"SoapFmt": true, "JavaSer": true, "Codec": true}
	sawOpts := false
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && moved[d.Name.Name] {
					t.Errorf("%s declares %s, which belongs in internal/paper/wirecodecs", file, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if moved[sp.Name.Name] {
							t.Errorf("%s declares %s, which belongs in internal/paper/wirecodecs", file, sp.Name.Name)
						}
						if sp.Name.Name == "binOpts" {
							sawOpts = true
							checkBinOpts(t, file, sp)
						}
					case *ast.ValueSpec:
						for _, name := range sp.Names {
							if moved[name.Name] {
								t.Errorf("%s declares %s, which belongs in internal/paper/wirecodecs", file, name.Name)
							}
						}
					}
				}
			}
		}
	}
	if !sawOpts {
		t.Error("internal/wire declares no binOpts: update this test")
	}
}

// checkBinOpts fails unless binOpts has exactly the field borrow.
func checkBinOpts(t *testing.T, file string, spec *ast.TypeSpec) {
	t.Helper()
	st, ok := spec.Type.(*ast.StructType)
	if !ok {
		t.Errorf("%s: binOpts is not a struct", file)
		return
	}
	var fields []string
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			fields = append(fields, name.Name)
		}
	}
	if strings.Join(fields, ",") != "borrow" {
		t.Errorf("%s: binOpts has fields %v, want [borrow]: a dialect switch belongs in the codec that needs it", file, fields)
	}
}
