// Package paper holds the 2005 stacks the paper measures against (mono, rmi,
// mpi, the wire formats of the RMI and SOAP baselines in wirecodecs, the
// endpoint cost model in cost and the calibrated profiles they run with),
// the JGF kernels (jgf), the programs that run them (cmd) and the code that
// regenerates the paper's figures from them (figures): reproduction code the
// production runtime must never depend on. This test is the boundary.
package paper

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// shippedRoots are the packages that ship: the public API and the node
// binary. What they link is computed from their imports, not listed.
var shippedRoots = []string{"parc", "cmd/parcnode"}

// paperCode is everything the shipped runtime may not link, nor anything
// below it: internal/paper, the Mono thread pool of the Fig. 9 farm, and
// the paper's sieve workload.
var paperCode = []string{
	"repro/internal/paper",
	"repro/internal/threadpool",
	"repro/internal/sieve",
}

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

// omMethods returns the names of the object manager's RPCs: the exported
// methods internal/core/omservice.go declares on omService.
func omMethods(t *testing.T) map[string]bool {
	t.Helper()
	file := filepath.Join(repoRoot(t), "internal", "core", "omservice.go")
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.IsExported() {
			if star, ok := fd.Recv.List[0].Type.(*ast.StarExpr); ok && fmt.Sprint(star.X) == "omService" {
				names[fd.Name.Name] = true
			}
		}
	}
	if len(names) == 0 {
		t.Fatalf("%s declares no method on omService: update this test", file)
	}
	return names
}

// TestRuntimeCallsItsObjectManagerTyped holds the runtime to the generated
// requests of its object manager (omservice_parc.go): no hand-written file
// of internal/core names one of its RPCs in a string literal, so a renamed
// RPC or a reordered parameter fails to compile instead of failing at run
// time.
func TestRuntimeCallsItsObjectManagerTyped(t *testing.T) {
	rpcs := omMethods(t)
	files, err := filepath.Glob(filepath.Join(repoRoot(t), "internal", "core", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, file, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		if ast.IsGenerated(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil && rpcs[s] {
					t.Errorf("%s names the object manager's %s by string: call its generated request om%s", fset.Position(lit.Pos()), s, s)
				}
			}
			return true
		})
	}
}

// exportedNames returns the exported top-level names the non-test files of
// dir declare, methods aside, each with the file that declares it.
func exportedNames(t *testing.T, dir string) map[string]string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]string{}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		if f.Name.Name == "main" {
			return nil
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					names[d.Name.Name] = file
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() {
							names[sp.Name.Name] = file
						}
					case *ast.ValueSpec:
						for _, name := range sp.Names {
							if name.IsExported() {
								names[name.Name] = file
							}
						}
					}
				}
			}
		}
	}
	return names
}

// nameUse says where a module package's name is read: in a non-test file of
// another package (code), or in a test file (test).
type nameUse struct{ code, test bool }

// nameReads parses every Go file under the repository root, the nested
// benchmark module included, and records each read of a module package's
// name, keyed "dir.Name" with dir relative to the root: a qualified
// reference anywhere, and an unqualified identifier in a test file of the
// package itself.
func nameReads(t *testing.T) map[string]*nameUse {
	t.Helper()
	root := repoRoot(t)
	reads := map[string]*nameUse{}
	read := func(key string, code bool) {
		use := reads[key]
		if use == nil {
			use = &nameUse{}
			reads[key] = use
		}
		use.code = use.code || code
		use.test = use.test || !code
	}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		dir = filepath.ToSlash(dir)
		isTest := strings.HasSuffix(path, "_test.go")
		local := map[string]string{}
		for _, imp := range f.Imports {
			ipath, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			rel, ok := strings.CutPrefix(ipath, "repro/")
			if !ok {
				continue
			}
			name := rel[strings.LastIndex(rel, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			local[name] = rel
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && local[x.Name] != "" {
					pkg := local[x.Name]
					read(pkg+"."+n.Sel.Name, !isTest && pkg != dir)
				}
			case *ast.Ident:
				if isTest && !strings.HasSuffix(f.Name.Name, "_test") {
					read(dir+"."+n.Name, false)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return reads
}

// unreadAllowed are exported names of the shipped runtime the reader rule
// below would reject, each with why it stays exported.
var unreadAllowed = map[string]string{
	// Interfaces another package implements without naming them.
	"internal/core.Aggregate":        "parc's WhenAll, WhenAny and Pipeline records implement it (MemberDone)",
	"internal/core.Step":             "parc's Then and Catch records implement it (Then)",
	"internal/remoting.Turn":         "core's asynchronous call implements it (InTurn)",
	"internal/transport.BatchSender": "internal/paper/cost's and the benchmark's connection wrappers implement it",
	// Types reached only through a constructor or another name's signature.
	"internal/transport.MemNetwork":  "reached through NewMemNetwork",
	"internal/transport.UnixNetwork": "reached through Auto; remoting's TestFrameOwnershipRule builds one",
	"internal/remoting.Backoff":      "the result of Channel.Backoff, which core's attempt waits out a retry's delay on",
	"parc.NetworkParams":             "the result of Ethernet100 and the argument of WithNetwork",
	"parc.RetryPolicy":               "the result of DefaultRetryPolicy and the argument of WithRetry",
	"parc.VirtualOption":             "the result of WithReplicas and the argument of RegisterVirtual",
	// The seam ROADMAP item 3(a) names as its first reader: a test's clock
	// for ShapedNetwork.
	"internal/netsim.Clock": "the type of ShapedNetwork.Clock, for a test that drives shaping with its own clock",
	// Names another package's tests read.
	"internal/remoting.AuditRecords":       "core's TestArgListReuseIsSafe audits call records across packages",
	"internal/remoting.DefaultMaxInFlight": "core's TestServedCallsParkNoGoroutine fills a lane to it",
	"internal/transport.GetFrame":          "remoting's TestFrameOwnershipRule and cost's TestNetworkKeepsPooledReceive drain the frame pool",
	"internal/transport.NewPipe":           "netsim's shaping tests and mono's TestLegacyChunkReassembly run over a pipe",
	"internal/wire.BorrowMin":              "remoting's TestBlockingRecordSink checks which replies borrow their frame",
	"internal/wire.TagString":              "remoting's TestBoundCallIsStringFree and TestParentFramesRejected build frames by hand",
}

// TestShippedNamesHaveReaders holds the shipped runtime's surface to what
// its readers use. Every exported top-level name of a shipped package
// other than parc must be read by a non-test file of another package (cmd,
// examples, internal/paper and the benchmark module count); every name of
// parc, the public API, by a test, an example or another package. A name
// only its own package reads is unexported; a name nothing reads goes.
// Methods are out of scope.
func TestShippedNamesHaveReaders(t *testing.T) {
	root := repoRoot(t)
	reads := nameReads(t)
	declared := map[string]bool{}
	for pkg := range shippedImports(t) {
		for name, file := range exportedNames(t, filepath.Join(root, pkg)) {
			key := pkg + "." + name
			declared[key] = true
			use := reads[key]
			read := use != nil && use.code
			if pkg == "parc" {
				read = use != nil && (use.code || use.test)
			}
			switch reason, allowed := unreadAllowed[key]; {
			case read && allowed:
				t.Errorf("%s is read (%q no longer holds): drop it from unreadAllowed", key, reason)
			case !read && !allowed && pkg == "parc":
				t.Errorf("%s (%s) has no test, example or other package reading it: delete it", key, file)
			case !read && !allowed:
				t.Errorf("%s (%s) is read by no non-test file of another package: unexport or delete it", key, file)
			}
		}
	}
	for key := range unreadAllowed {
		if !declared[key] {
			t.Errorf("unreadAllowed names %s, which the shipped runtime does not declare", key)
		}
	}
}

// linesUnder counts the lines of the non-test Go files under each of dirs,
// relative to the repository root, skipping the subtree skip (relative too).
func linesUnder(t *testing.T, skip string, dirs ...string) int {
	t.Helper()
	root := repoRoot(t)
	n := 0
	for _, dir := range dirs {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && (path == filepath.Join(root, skip) || d.Name() == ".git") {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			data, err := os.ReadFile(path)
			n += strings.Count(string(data), "\n")
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// withCommas formats n with a comma between thousands, as README prints it.
func withCommas(n int) string {
	s := strconv.Itoa(n)
	for i := len(s) - 3; i > 0; i -= 3 {
		s = s[:i] + "," + s[i:]
	}
	return s
}

// TestReadmeLineCounts holds README's "They read …" sentence in "Build and
// test" to what its three commands print: the non-test lines of the root
// module, of the call path, and of the shipped runtime (the packages
// shippedImports reaches, which are what go list -deps lists, since no
// shipped file has a build constraint).
func TestReadmeLineCounts(t *testing.T) {
	root := repoRoot(t)
	shipped := 0
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
			shipped += strings.Count(string(data), "\n")
		}
	}
	want := fmt.Sprintf("They read %s, %s and %s.",
		withCommas(linesUnder(t, "benchmark", ".")),
		withCommas(linesUnder(t, "", "parc", "internal/core", "internal/remoting", "internal/cluster", "internal/keep")),
		withCommas(shipped))
	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	got := regexp.MustCompile(`They read [\d,]+, [\d,]+ and [\d,]+\.`).Find(readme)
	if string(got) != want {
		t.Errorf("README says %q, the commands under \"Build and test\" give %q: print the new figures", got, want)
	}
}
