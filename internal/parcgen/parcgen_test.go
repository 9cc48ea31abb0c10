package parcgen

import (
	"os"
	"strings"
	"testing"
)

const sample = `package demo

import (
	"sort"
	"unused/pkg"
)

var _ = pkg.Thing // keeps the import honest in the original file

// Worker is a parallel class.
//
//parc:parallel
type Worker struct{ n int }

// Bump is a void method (becomes an asynchronous post).
func (w *Worker) Bump(v int) { w.n += v }

// Total returns a value (becomes a synchronous invoke).
func (w *Worker) Total() int { return w.n }

// SortAll uses an imported type in its signature.
func (w *Worker) SortAll(s sort.IntSlice) sort.IntSlice { sort.Sort(s); return s }

// Fallible returns (value, error).
func (w *Worker) Fallible(x float64) (float64, error) { return x, nil }

// ErrOnly returns only an error (async + Sync variant).
func (w *Worker) ErrOnly() error { return nil }

// variadic methods are skipped.
func (w *Worker) Var(xs ...int) {}

// twoResults methods are skipped.
func (w *Worker) Two() (int, int) { return 1, 2 }

// unexported methods are skipped.
func (w *Worker) hidden() {}

// Passive is not annotated; no code is generated for it.
type Passive struct{}

func (p *Passive) Noop() {}
`

func generate(t *testing.T, src string) string {
	t.Helper()
	out, err := GenerateFile("sample.go", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestGenerateBasics(t *testing.T) {
	got := generate(t, sample)
	for _, want := range []string{
		"package demo",
		"type WorkerPO struct",
		"o *parc.Object[Worker]",
		`parc.RegisterAt[Worker](rt, "demo.Worker")`,
		`parc.NewAt[Worker](rt, "demo.Worker")`,
		"func (po *WorkerPO) Bump(ctx context.Context, v int) error {",
		`po.o.Send(ctx, "Bump", v)`,
		"func (po *WorkerPO) BumpSync(ctx context.Context, v int) error {",
		"func (po *WorkerPO) Total(ctx context.Context) (int, error) {",
		`parc.Call[int](ctx, po.o, "Total")`,
		"func (po *WorkerPO) BeginTotal(ctx context.Context) *parc.Result[int] {",
		`parc.CallAsync[int](ctx, po.o, "Total")`,
		"func (po *WorkerPO) Fallible(ctx context.Context, x float64) (float64, error) {",
		"func (po *WorkerPO) ErrOnly(ctx context.Context) error {",
		"func (po *WorkerPO) SortAll(ctx context.Context, s sort.IntSlice) (sort.IntSlice, error) {",
		`"sort"`,
		"func AttachWorker(",
		"func (po *WorkerPO) Wait(ctx context.Context) error",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("generated code missing %q", want)
		}
	}
	for _, reject := range []string{
		"Var(", "Two(", "hidden", "PassivePO", `"unused/pkg"`,
	} {
		if strings.Contains(got, reject) {
			t.Errorf("generated code wrongly contains %q", reject)
		}
	}
}

// TestContextParamInjected: a leading context.Context parameter is served
// by the runtime (request context injection) and must not travel as a wire
// argument nor appear twice in the wrapper signature.
func TestContextParamInjected(t *testing.T) {
	src := `package p

import "context"

//parc:parallel
type S struct{}

func (s *S) Work(ctx context.Context, n int) int { return n }

func (s *S) Fire(ctx context.Context) {}
`
	got := generate(t, src)
	for _, want := range []string{
		"func (po *SPO) Work(ctx context.Context, n int) (int, error) {",
		`parc.Call[int](ctx, po.o, "Work", n)`,
		"func (po *SPO) Fire(ctx context.Context) error {",
		`po.o.Send(ctx, "Fire")`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("generated code missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, `"Work", ctx`) || strings.Contains(got, "ctx context.Context, ctx") {
		t.Errorf("context parameter leaked into wire arguments:\n%s", got)
	}
}

// TestContextImportAlias: a source file importing context under an alias
// still gets the leading context parameter stripped (matched by resolved
// name), and the generated file compiles with the standard import only.
func TestContextImportAlias(t *testing.T) {
	src := `package p

import stdctx "context"

//parc:parallel
type S struct{}

func (s *S) Work(c stdctx.Context, n int) int { return n }
`
	got := generate(t, src)
	if !strings.Contains(got, "func (po *SPO) Work(ctx context.Context, n int) (int, error) {") {
		t.Errorf("aliased context param not stripped:\n%s", got)
	}
	if strings.Contains(got, "stdctx") {
		t.Errorf("generated code references the source alias:\n%s", got)
	}
}

func TestDirectiveOnNonStruct(t *testing.T) {
	src := `package p

//parc:parallel
type NotAStruct int
`
	if _, err := GenerateFile("x.go", []byte(src)); err == nil {
		t.Error("directive on non-struct should fail")
	}
}

func TestNoDirectives(t *testing.T) {
	if _, err := GenerateFile("x.go", []byte("package p\ntype T struct{}\n")); err == nil {
		t.Error("expected error when no annotated types exist")
	}
}

func TestParseError(t *testing.T) {
	if _, err := GenerateFile("x.go", []byte("not go")); err == nil {
		t.Error("expected parse error")
	}
}

func TestUnnamedAndBlankParams(t *testing.T) {
	src := `package p

//parc:parallel
type S struct{}

func (s *S) M(_ int, _ string) {}

func (s *S) N(int, string) {}
`
	got := generate(t, src)
	if !strings.Contains(got, "func (po *SPO) M(ctx context.Context, a0 int, a1 string)") {
		t.Errorf("blank params not synthesised:\n%s", got)
	}
	if !strings.Contains(got, "func (po *SPO) N(ctx context.Context, a0 int, a1 string)") {
		t.Errorf("unnamed params not synthesised:\n%s", got)
	}
}

func TestDirectiveVariants(t *testing.T) {
	src := `package p

type A struct{} //parc:parallel

//parc:parallel
type B struct{}
`
	f, err := Analyze("x.go", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Classes) != 2 {
		t.Fatalf("found %d classes, want 2 (line-comment and doc-comment)", len(f.Classes))
	}
}

// TestGenerateInvokerThunks: every class gets an init registering typed
// invoker thunks with arity checks, typed Arg binding and direct calls.
func TestGenerateInvokerThunks(t *testing.T) {
	got := generate(t, sample)
	for _, want := range []string{
		"parc.RegisterInvokers(&Worker{}, map[string]parc.Invoker{",
		`"Bump": func(ctx context.Context, obj any, args []any) (any, error) {`,
		"x := obj.(*Worker)",
		`return nil, parc.BadArity(obj, "Bump", len(args), 1)`,
		`a0, err := parc.Arg[int](obj, "Bump", args, 0)`,
		"x.Bump(a0)",
		"return x.Total(), nil",
		`r, err := x.Fallible(a0)`,
		"return nil, x.ErrOnly()",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("generated thunks missing %q", want)
		}
	}
	// Skipped methods get no thunks either.
	if strings.Contains(got, `"Var"`) || strings.Contains(got, `"Two"`) {
		t.Errorf("skipped methods leaked into thunks:\n%s", got)
	}
}

// TestGenerateCtxThunk: a context-aware method's thunk injects the request
// context as the first call argument.
func TestGenerateCtxThunk(t *testing.T) {
	src := `package p

import "context"

//parc:parallel
type S struct{}

func (s *S) Work(ctx context.Context, n int) int { return n }
`
	got := generate(t, src)
	if !strings.Contains(got, "return x.Work(ctx, a0), nil") {
		t.Errorf("ctx not injected into thunk call:\n%s", got)
	}
}

// TestRuntimeFlavour: a class of package core is the runtime's own. It
// gets typed request constructors and thunks written against dispatch,
// and nothing of parc, which core cannot import.
func TestRuntimeFlavour(t *testing.T) {
	src := `package core

import "context"

//parc:parallel
type omService struct{}

func (s *omService) Resolve(uri string) resolveReply { return resolveReply{} }

func (s *omService) Drop(ctx context.Context, uri string, gen uint64) error { return nil }
`
	got := generate(t, src)
	for _, want := range []string{
		`"repro/internal/dispatch"`,
		"func omResolve(uri string) omCall[resolveReply] {",
		`return omCall[resolveReply]{remoteCall{call: "Resolve", args: []any{uri}}}`,
		"func omDrop(uri string, gen uint64) omCall[struct{}] {",
		"dispatch.RegisterInvokers(&omService{}, map[string]dispatch.Invoker{",
		`a1, err := dispatch.Arg[uint64](obj, "Drop", args, 1)`,
		"return nil, x.Drop(ctx, a0, a1)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("runtime flavour missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "parc.") || strings.Contains(got, "PO struct") {
		t.Errorf("runtime flavour refers to parc or a PO:\n%s", got)
	}
}

// TestGoldenUpToDate ensures every committed generated file of the root
// module matches what the current generator produces from its source: the
// same guarantee a go:generate + CI diff gives. benchmark/classes_parc.go
// is held the same way by the benchmark module's own tests.
func TestGoldenUpToDate(t *testing.T) {
	for _, src := range []string{
		"example/prime.go",
		"../../examples/quickstart/main.go",
		"../core/omservice.go",
	} {
		in, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		out := strings.TrimSuffix(src, ".go") + "_parc.go"
		want, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		got, err := GenerateFile(src, in)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s is stale; rerun go generate in its directory", out)
		}
	}
}
