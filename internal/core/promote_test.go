package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"
)

// The decisions of promote.go, one table each, one row per branch.

func TestFresher(t *testing.T) {
	for _, c := range []struct {
		name                 string
		gen, seq, ogen, oseq uint64
		want                 bool
	}{
		{"higher generation, lower seq", 3, 1, 2, 9, true},
		{"lower generation, higher seq", 2, 9, 3, 1, false},
		{"equal generation, higher seq", 2, 5, 2, 4, true},
		{"equal generation, equal seq", 2, 4, 2, 4, false},
		{"equal generation, lower seq", 2, 3, 2, 4, false},
		{"anything against nothing held", 1, 0, 0, 0, true},
	} {
		if got := fresher(c.gen, c.seq, c.ogen, c.oseq); got != c.want {
			t.Errorf("%s: fresher(%d, %d, %d, %d) = %v, want %v", c.name, c.gen, c.seq, c.ogen, c.oseq, got, c.want)
		}
	}
}

func TestActivationGen(t *testing.T) {
	for _, c := range []struct {
		name string
		seen []uint64
		want uint64
	}{
		{"nothing heard of", nil, 1},
		{"all zero", []uint64{0, 0, 0, 0}, 1},
		{"directory entry only", []uint64{4, 0, 0, 0}, 5},
		{"a remote resolve above the directory", []uint64{4, 6, 0, 0}, 7},
		{"the promoted state above both", []uint64{4, 6, 8, 0}, 9},
		{"an abort marker raises it", []uint64{3, 0, 2, 7}, 8},
		{"an abort marker below leaves it", []uint64{5, 0, 2, 3}, 6},
	} {
		if got := activationGen(c.seen...); got != c.want {
			t.Errorf("%s: activationGen(%v) = %d, want %d", c.name, c.seen, got, c.want)
		}
	}
}

func TestCensusQuorum(t *testing.T) {
	for _, c := range []struct {
		size, least int // least reached count that may promote
	}{
		{1, 1}, {2, 2}, {3, 2}, {4, 3}, {5, 3},
	} {
		for reached := 1; reached <= c.size; reached++ {
			if got, want := censusQuorum(reached, c.size), reached >= c.least; got != want {
				t.Errorf("censusQuorum(%d, %d) = %v, want %v", reached, c.size, got, want)
			}
		}
	}
}

func TestCensusFence(t *testing.T) {
	for _, c := range []struct {
		name              string
		hosted, candidate uint64
		want              bool
	}{
		{"candidate promotes past the copy", 3, 4, true},
		{"equal generation: the lineage being confirmed", 4, 4, false},
		{"copy above the candidate", 5, 4, false},
	} {
		if got := censusFence(c.hosted, c.candidate); got != c.want {
			t.Errorf("%s: censusFence(%d, %d) = %v, want %v", c.name, c.hosted, c.candidate, got, c.want)
		}
	}
}

func TestJudgeShip(t *testing.T) {
	held := &replicaState{gen: 4, seq: 10, dedupStamp: 7}
	for _, c := range []struct {
		name            string
		promised        uint64
		cur             *replicaState
		gen, seq, base  uint64
		apply, needFull bool
		err             string
	}{
		{"below the promise", 5, nil, 4, 1, 0, false, false, "superseded by a promotion census at 5"},
		{"at the promise, nothing held", 5, nil, 5, 1, 0, true, false, ""},
		{"needFull: a delta onto no replica", 0, nil, 4, 1, 3, false, true, ""},
		{"an older generation than held", 0, held, 3, 99, 0, false, false, "stale snapshot generation 3 (replica holds 4)"},
		{"equal generation, older seq: acknowledged, replica kept", 0, held, 4, 9, 0, false, false, ""},
		{"equal generation, older seq delta: acknowledged, replica kept", 0, held, 4, 9, 7, false, false, ""},
		{"equal generation, equal seq", 0, held, 4, 10, 0, true, false, ""},
		{"equal generation, newer seq", 0, held, 4, 11, 0, true, false, ""},
		{"newer generation, full", 0, held, 5, 1, 0, true, false, ""},
		{"needFull: a delta from another generation", 0, held, 5, 1, 7, false, true, ""},
		{"needFull: a stamp gap", 0, held, 4, 11, 8, false, true, ""},
		{"an intact delta", 0, held, 4, 11, 7, true, false, ""},
		{"a delta behind the held stamp", 0, held, 4, 11, 2, true, false, ""},
	} {
		apply, needFull, err := judgeShip("virtual/c/k", c.promised, c.cur, c.gen, c.seq, c.base)
		if apply != c.apply || needFull != c.needFull {
			t.Errorf("%s: (apply, needFull) = (%v, %v), want (%v, %v)", c.name, apply, needFull, c.apply, c.needFull)
		}
		switch {
		case c.err == "" && err != nil:
			t.Errorf("%s: err = %v, want none", c.name, err)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("%s: err = %v, want %q", c.name, err, c.err)
		}
	}
}

// TestPromoteIsPure holds promote.go to its contract: pure functions that
// a model of the protocol can call as the runtime does. It imports only
// fmt (no I/O, lock or clock), declares no method, names no Runtime and
// starts no goroutine.
func TestPromoteIsPure(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "promote.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path != "fmt" {
			t.Errorf("promote.go imports %q; only fmt is allowed", path)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Recv != nil {
				t.Errorf("promote.go declares method %s; decisions are plain functions", n.Name.Name)
			}
		case *ast.GoStmt:
			t.Error("promote.go starts a goroutine")
		case *ast.Ident:
			if n.Name == "Runtime" {
				t.Error("promote.go names Runtime")
			}
		}
		return true
	})
}
