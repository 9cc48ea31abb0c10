// Package parcgen is the reproduction of the ParC# preprocessor (paper
// §3.2): a source-to-source generator that turns annotated classes into
// proxy-object (PO) code. The C# preprocessor "analyses the application —
// retrieving information about the declared parallel objects — and
// generates code for remote object creation and remote method invocation"
// (Figs. 4–6); parcgen does the same for Go.
//
// Usage: mark a struct type with the directive comment
//
//	//parc:parallel
//	type PrimeServer struct{ ... }
//
// and run cmd/parcgen over the file (or a go:generate line). For every
// marked type T the generator emits, into <file>_parc.go:
//
//   - RegisterT(rt) — the per-node factory registration (paper Fig. 6's
//     generated RemoteFactory + boot registration);
//   - NewT(rt) (*TPO, error) — PO creation through the object manager
//     (Fig. 5's generated constructor);
//   - TPO, a typed proxy wrapping parc.Object[T], with one context-aware
//     wrapper per exported method: void methods become asynchronous sends
//     (Fig. 4's delegate BeginInvoke), value-returning methods become
//     synchronous typed calls plus BeginM asynchronous variants returning
//     parc.Result futures.
//
// A method whose first parameter is a context.Context receives the
// caller's context there (injected on the hosting node, carrying the
// caller's deadline); it is not part of the wire arguments.
//
// Every generated class also gets typed invoker thunks, registered via
// parc.RegisterInvokers, so server-side dispatch binds arguments with type
// assertions and calls the method directly instead of through
// reflect.Value.Call.
//
// A file of package core (runtimePackage) is the runtime's own object
// manager, which parc's POs cannot serve: core sits below parc. It gets the
// runtime flavour, worked out from the package alone: its thunks register
// with dispatch, and in place of a PO each method gets a typed request
// constructor (genRequests) that the runtime sends on its call path.
package parcgen

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/printer"
	"go/token"
	"sort"
	"strconv"
	"strings"
)

// Directive is the comment that marks a parallel-object class.
const Directive = "parc:parallel"

// Class describes one annotated type and its wire-callable methods.
type Class struct {
	Name    string
	Methods []Method
}

// Method is one exported method eligible for remote invocation.
type Method struct {
	Name    string
	Params  []Param  // wire parameters (a leading context.Context excluded)
	Results []string // rendered result types, excluding a trailing error
	HasErr  bool     // trailing error result present
	HasCtx  bool     // leading context.Context parameter present
}

// Param is a typed parameter.
type Param struct {
	Name string
	Type string
}

// File is the analysis result of one source file.
type File struct {
	Package string
	Classes []Class
	// Imports are the source imports referenced by the generated
	// signatures (path, optional alias).
	Imports []ImportSpec
}

// ImportSpec is one import retained in the generated file.
type ImportSpec struct {
	Alias string
	Path  string
}

// Analyze parses src (file name used for positions only) and extracts the
// annotated classes.
func Analyze(filename string, src []byte) (*File, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("parcgen: parse %s: %w", filename, err)
	}
	out := &File{Package: f.Name.Name}

	marked := map[string]bool{}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			if hasDirective(Directive, gd.Doc) || hasDirective(Directive, ts.Doc) || hasDirective(Directive, ts.Comment) {
				if _, isStruct := ts.Type.(*ast.StructType); !isStruct {
					return nil, fmt.Errorf("parcgen: %s: directive on non-struct type %s", filename, ts.Name.Name)
				}
				marked[ts.Name.Name] = true
			}
		}
	}
	if len(marked) == 0 {
		return out, nil
	}

	methods := map[string][]Method{}
	usedPkgs := map[string]bool{}
	// ctxName is the local name the source file gives the context package
	// (usually "context", but an alias is honoured).
	ctxName := "context"
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == "context" && imp.Name != nil {
			ctxName = imp.Name.Name
		}
	}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 {
			continue
		}
		recv := receiverType(fd.Recv.List[0].Type)
		if recv == "" || !marked[recv] {
			continue
		}
		if !fd.Name.IsExported() {
			continue
		}
		m, ok, err := analyzeMethod(fset, fd, usedPkgs, ctxName)
		if err != nil {
			return nil, fmt.Errorf("parcgen: %s: method %s.%s: %w", filename, recv, fd.Name.Name, err)
		}
		if ok {
			methods[recv] = append(methods[recv], m)
		}
	}

	names := make([]string, 0, len(marked))
	for n := range marked {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		out.Classes = append(out.Classes, Class{Name: n, Methods: methods[n]})
	}

	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		name := importName(imp)
		if usedPkgs[name] {
			alias := ""
			if imp.Name != nil {
				alias = imp.Name.Name
			}
			out.Imports = append(out.Imports, ImportSpec{Alias: alias, Path: path})
		}
	}
	return out, nil
}

func hasDirective(directive string, cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		text := strings.TrimPrefix(c.Text, "//")
		if strings.TrimSpace(text) == directive {
			return true
		}
	}
	return false
}

func receiverType(expr ast.Expr) string {
	switch t := expr.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		if id, ok := t.X.(*ast.Ident); ok {
			return id.Name
		}
	}
	return ""
}

func importName(imp *ast.ImportSpec) string {
	if imp.Name != nil {
		return imp.Name.Name
	}
	path, _ := strconv.Unquote(imp.Path.Value)
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

var errType = "error"

// analyzeMethod extracts a wire-callable method; ok=false skips methods the
// runtime cannot dispatch (variadic, >1 non-error result). ctxName is the
// source file's local name for the context package.
func analyzeMethod(fset *token.FileSet, fd *ast.FuncDecl, usedPkgs map[string]bool, ctxName string) (Method, bool, error) {
	m := Method{Name: fd.Name.Name}
	ft := fd.Type
	if ft.Params != nil {
		type paramExpr struct {
			Param
			expr ast.Expr
		}
		var params []paramExpr
		idx := 0
		for _, field := range ft.Params.List {
			if _, variadic := field.Type.(*ast.Ellipsis); variadic {
				return m, false, nil
			}
			typ := renderExpr(fset, field.Type)
			if len(field.Names) == 0 {
				params = append(params, paramExpr{Param{Name: fmt.Sprintf("a%d", idx), Type: typ}, field.Type})
				idx++
				continue
			}
			for _, name := range field.Names {
				pname := name.Name
				if pname == "_" || pname == "" {
					pname = fmt.Sprintf("a%d", idx)
				}
				params = append(params, paramExpr{Param{Name: pname, Type: typ}, field.Type})
				idx++
			}
		}
		if len(params) > 0 && params[0].Type == ctxName+".Context" {
			// The runtime injects the request context on the hosting
			// node; the parameter never travels as a wire argument (and
			// must not mark the context import as used).
			params = params[1:]
			m.HasCtx = true
		}
		for _, p := range params {
			collectPkgs(p.expr, usedPkgs)
			m.Params = append(m.Params, p.Param)
		}
	}
	if ft.Results != nil {
		var rendered []string
		for _, field := range ft.Results.List {
			typ := renderExpr(fset, field.Type)
			n := len(field.Names)
			if n == 0 {
				n = 1
			}
			for i := 0; i < n; i++ {
				rendered = append(rendered, typ)
			}
			collectPkgs(field.Type, usedPkgs)
		}
		if len(rendered) > 0 && rendered[len(rendered)-1] == errType {
			m.HasErr = true
			rendered = rendered[:len(rendered)-1]
		}
		if len(rendered) > 1 {
			return m, false, nil // dispatcher supports at most one value
		}
		m.Results = rendered
	}
	return m, true, nil
}

func renderExpr(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	printer.Fprint(&buf, fset, e)
	return buf.String()
}

func collectPkgs(e ast.Expr, used map[string]bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok {
				used[id.Name] = true
			}
		}
		return true
	})
}

// runtimePackage is the package whose classes get the runtime flavour:
// internal/core, which parc imports and so cannot import back. Its code is
// written against dispatch, which parc forwards to, instead of parc.
const runtimePackage = "core"

// Generate emits the PO source for an analysed file. The class's wire name
// is "<package>.<Type>", matching what RegisterT registers, and every class
// gets zero-reflection invoker thunks. A file of runtimePackage gets the
// runtime flavour instead of POs.
func Generate(f *File) ([]byte, error) {
	if len(f.Classes) == 0 {
		return nil, fmt.Errorf("parcgen: no //%s types found", Directive)
	}
	runtime := f.Package == runtimePackage
	qual, qualPath, what := "parc", "repro/parc", "Typed proxy objects for the SCOOPP runtime (paper Figs. 4-6)."
	if runtime {
		qual, qualPath, what = "dispatch", "repro/internal/dispatch", "Typed requests and invoker thunks of the runtime's own classes (paper Fig. 6)."
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "// Code generated by parcgen; DO NOT EDIT.\n")
	fmt.Fprintf(&b, "// %s\n\n", what)
	fmt.Fprintf(&b, "package %s\n\n", f.Package)
	fmt.Fprintf(&b, "import (\n")
	fmt.Fprintf(&b, "\t\"context\"\n\n")
	fmt.Fprintf(&b, "\t%q\n", qualPath)
	reserved := map[string]bool{"context": true, qualPath: true}
	for _, imp := range f.Imports {
		if imp.Alias == "" && reserved[imp.Path] {
			continue // already emitted above; aliased imports stay legal
		}
		if imp.Alias != "" {
			fmt.Fprintf(&b, "\t%s %q\n", imp.Alias, imp.Path)
		} else {
			fmt.Fprintf(&b, "\t%q\n", imp.Path)
		}
	}
	fmt.Fprintf(&b, ")\n\n")

	for _, c := range f.Classes {
		if runtime {
			genRequests(&b, c)
			genInvokers(&b, c, qual)
			continue
		}
		class := f.Package + "." + c.Name
		fmt.Fprintf(&b, "// %sPO is the typed proxy object (PO) for parallel objects of class %q.\n", c.Name, class)
		fmt.Fprintf(&b, "type %sPO struct {\n\to *parc.Object[%s]\n}\n\n", c.Name, c.Name)

		fmt.Fprintf(&b, "// Register%s registers the %s factory on a node; call it on every\n// node before creating objects (the paper's per-node boot registration).\n", c.Name, c.Name)
		fmt.Fprintf(&b, "func Register%s(rt *parc.Runtime) {\n", c.Name)
		fmt.Fprintf(&b, "\tparc.RegisterAt[%s](rt, %q)\n}\n\n", c.Name, class)

		fmt.Fprintf(&b, "// New%s creates a parallel %s through the object manager.\n", c.Name, c.Name)
		fmt.Fprintf(&b, "func New%s(rt *parc.Runtime) (*%sPO, error) {\n", c.Name, c.Name)
		fmt.Fprintf(&b, "\to, err := parc.NewAt[%s](rt, %q)\n", c.Name, class)
		fmt.Fprintf(&b, "\tif err != nil {\n\t\treturn nil, err\n\t}\n")
		fmt.Fprintf(&b, "\treturn &%sPO{o: o}, nil\n}\n\n", c.Name)

		fmt.Fprintf(&b, "// Attach%s binds a received reference to a usable proxy.\n", c.Name)
		fmt.Fprintf(&b, "func Attach%s(rt *parc.Runtime, ref parc.ProxyRef) *%sPO {\n", c.Name, c.Name)
		fmt.Fprintf(&b, "\treturn &%sPO{o: parc.Bind[%s](rt, ref)}\n}\n\n", c.Name, c.Name)

		fmt.Fprintf(&b, "// Object exposes the typed handle.\n")
		fmt.Fprintf(&b, "func (po *%sPO) Object() *parc.Object[%s] { return po.o }\n\n", c.Name, c.Name)
		fmt.Fprintf(&b, "// Proxy exposes the underlying dynamic proxy.\n")
		fmt.Fprintf(&b, "func (po *%sPO) Proxy() *parc.Proxy { return po.o.Proxy() }\n\n", c.Name)
		fmt.Fprintf(&b, "// Ref returns a wire-encodable reference to the object.\n")
		fmt.Fprintf(&b, "func (po *%sPO) Ref() parc.ProxyRef { return po.o.Ref() }\n\n", c.Name)
		fmt.Fprintf(&b, "// Wait blocks until all asynchronous calls have executed or ctx ends.\n")
		fmt.Fprintf(&b, "func (po *%sPO) Wait(ctx context.Context) error { return po.o.Wait(ctx) }\n\n", c.Name)
		fmt.Fprintf(&b, "// Destroy releases the parallel object.\n")
		fmt.Fprintf(&b, "func (po *%sPO) Destroy(ctx context.Context) error { return po.o.Destroy(ctx) }\n\n", c.Name)

		for _, m := range c.Methods {
			genMethod(&b, c.Name, m)
		}
		genInvokers(&b, c, qual)
	}
	src, err := format.Source(b.Bytes())
	if err != nil {
		return nil, fmt.Errorf("parcgen: generated code does not format: %w\n%s", err, b.String())
	}
	return src, nil
}

func genMethod(b *bytes.Buffer, typ string, m Method) {
	params := make([]string, 0, len(m.Params)+1)
	params = append(params, "ctx context.Context")
	args := make([]string, 0, len(m.Params)+1)
	args = append(args, strconv.Quote(m.Name))
	for _, p := range m.Params {
		params = append(params, p.Name+" "+p.Type)
		args = append(args, p.Name)
	}
	paramList := strings.Join(params, ", ")
	argList := strings.Join(args, ", ")

	ctxNote := ""
	if m.HasCtx {
		ctxNote = "// The implementation's context.Context parameter receives this call's\n// request context on the hosting node (it is not a wire argument).\n"
	}

	if len(m.Results) == 0 {
		// Void (possibly error-only) methods are asynchronous — the
		// paper's delegate BeginInvoke path (Fig. 4).
		fmt.Fprintf(b, "// %s invokes the method asynchronously (no result), as the\n// preprocessor's delegate-based PO did; execution errors flow to Object().Err().\n%s", m.Name, ctxNote)
		fmt.Fprintf(b, "func (po *%sPO) %s(%s) error {\n\treturn po.o.Send(ctx, %s)\n}\n\n", typ, m.Name, paramList, argList)
		fmt.Fprintf(b, "// %sSync invokes the method synchronously and reports the error.\n", m.Name)
		fmt.Fprintf(b, "func (po *%sPO) %sSync(%s) error {\n\t_, err := po.o.Invoke(ctx, %s)\n\treturn err\n}\n\n",
			typ, m.Name, paramList, argList)
		return
	}
	res := m.Results[0]
	fmt.Fprintf(b, "// %s invokes the method synchronously and returns its typed result.\n%s", m.Name, ctxNote)
	fmt.Fprintf(b, "func (po *%sPO) %s(%s) (%s, error) {\n", typ, m.Name, paramList, res)
	fmt.Fprintf(b, "\treturn parc.Call[%s](ctx, po.o, %s)\n}\n\n", res, argList)
	fmt.Fprintf(b, "// Begin%s starts the call asynchronously and returns a typed future.\n", m.Name)
	fmt.Fprintf(b, "func (po *%sPO) Begin%s(%s) *parc.Result[%s] {\n\treturn parc.CallAsync[%s](ctx, po.o, %s)\n}\n\n",
		typ, m.Name, paramList, res, res, argList)
}

// genRequests emits a runtime class's client: for every method, a
// constructor of its request, typed by its result. A class xService has
// requests x<Method>, of type xCall[R] (R is struct{} for a method without
// one), which the class's package declares over its remoteCall.
func genRequests(b *bytes.Buffer, c Class) {
	prefix := strings.TrimSuffix(c.Name, "Service")
	for _, m := range c.Methods {
		params := make([]string, 0, len(m.Params))
		args := make([]string, 0, len(m.Params))
		for _, p := range m.Params {
			params = append(params, p.Name+" "+p.Type)
			args = append(args, p.Name)
		}
		argList := strings.Join(args, ", ")
		res := "struct{}"
		if len(m.Results) > 0 {
			res = m.Results[0]
		}
		call := fmt.Sprintf("%sCall[%s]", prefix, res)
		fmt.Fprintf(b, "// %s%s is the request %s.%s(%s).\n", prefix, m.Name, c.Name, m.Name, argList)
		fmt.Fprintf(b, "func %s%s(%s) %s {\n", prefix, m.Name, strings.Join(params, ", "), call)
		fmt.Fprintf(b, "\treturn %s{remoteCall{call: %q, args: []any{%s}}}\n}\n\n", call, m.Name, argList)
	}
}

// genInvokers emits the init registering zero-reflection invoker thunks
// for one class: the server-side complement of the typed PO. Dispatch
// consults the registry first, so argument binding skips wire.Assign and
// the call skips reflect.Value.Call whenever a thunk exists. qual is the
// package the thunks are written against: parc, or dispatch for a runtime
// class.
func genInvokers(b *bytes.Buffer, c Class, qual string) {
	if len(c.Methods) == 0 {
		return
	}
	fmt.Fprintf(b, "// init registers typed invoker thunks for %s: the dispatcher binds\n", c.Name)
	fmt.Fprintf(b, "// decoded arguments by type assertion and calls the method directly,\n")
	fmt.Fprintf(b, "// skipping reflection on the server-side hot path.\n")
	fmt.Fprintf(b, "func init() {\n")
	fmt.Fprintf(b, "\t%s.RegisterInvokers(&%s{}, map[string]%s.Invoker{\n", qual, c.Name, qual)
	for _, m := range c.Methods {
		fmt.Fprintf(b, "\t\t%q: func(ctx context.Context, obj any, args []any) (any, error) {\n", m.Name)
		fmt.Fprintf(b, "\t\t\tx := obj.(*%s)\n", c.Name)
		fmt.Fprintf(b, "\t\t\tif len(args) != %d {\n", len(m.Params))
		fmt.Fprintf(b, "\t\t\t\treturn nil, %s.BadArity(obj, %q, len(args), %d)\n", qual, m.Name, len(m.Params))
		fmt.Fprintf(b, "\t\t\t}\n")
		callArgs := make([]string, 0, len(m.Params)+1)
		if m.HasCtx {
			callArgs = append(callArgs, "ctx")
		}
		for i, p := range m.Params {
			fmt.Fprintf(b, "\t\t\ta%d, err := %s.Arg[%s](obj, %q, args, %d)\n", i, qual, p.Type, m.Name, i)
			fmt.Fprintf(b, "\t\t\tif err != nil {\n\t\t\t\treturn nil, err\n\t\t\t}\n")
			callArgs = append(callArgs, fmt.Sprintf("a%d", i))
		}
		call := fmt.Sprintf("x.%s(%s)", m.Name, strings.Join(callArgs, ", "))
		switch {
		case len(m.Results) == 0 && !m.HasErr:
			fmt.Fprintf(b, "\t\t\t%s\n\t\t\treturn nil, nil\n", call)
		case len(m.Results) == 0 && m.HasErr:
			fmt.Fprintf(b, "\t\t\treturn nil, %s\n", call)
		case !m.HasErr:
			fmt.Fprintf(b, "\t\t\treturn %s, nil\n", call)
		default:
			fmt.Fprintf(b, "\t\t\tr, err := %s\n", call)
			fmt.Fprintf(b, "\t\t\tif err != nil {\n\t\t\t\treturn nil, err\n\t\t\t}\n")
			fmt.Fprintf(b, "\t\t\treturn r, nil\n")
		}
		fmt.Fprintf(b, "\t\t},\n")
	}
	fmt.Fprintf(b, "\t})\n}\n\n")
}

// GenerateFile is the single-call convenience used by cmd/parcgen.
func GenerateFile(filename string, src []byte) ([]byte, error) {
	f, err := Analyze(filename, src)
	if err != nil {
		return nil, err
	}
	return Generate(f)
}
