package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// typecheckSrc parses and type-checks one import-free source string and
// returns the requested function plus the types.Info the CFG layer needs.
func typecheckSrc(t *testing.T, src, fnName string) (*ast.FuncDecl, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "t.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{}
	if _, err := conf.Check("t", fset, []*ast.File{file}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == fnName {
			return fd, info
		}
	}
	t.Fatalf("function %s not found", fnName)
	return nil, nil
}

// markerCall finds the call to the named marker function inside fd.
func markerCall(t *testing.T, fd *ast.FuncDecl, name string) *ast.CallExpr {
	t.Helper()
	var out *ast.CallExpr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == name {
				out = call
			}
		}
		return true
	})
	if out == nil {
		t.Fatalf("marker %s not found", name)
	}
	return out
}

// locateMarker returns the block/index of a marker call.
func locateMarker(t *testing.T, fi *FuncInfo, fd *ast.FuncDecl, name string) (*Block, int) {
	t.Helper()
	b, i, ok := fi.Locate(markerCall(t, fd, name))
	if !ok {
		t.Fatalf("marker %s not located in any block", name)
	}
	return b, i
}

const cfgSrc = `package t

func m0()   {}
func m1()   {}
func m2()   {}
func m3()   {}
func m4()   {}
func cond() bool { return false }

func ifelse(b bool) {
	m0()
	if b {
		m1()
	} else {
		m2()
	}
	m3()
}

func earlyReturn(b bool) {
	m0()
	if b {
		m1()
		return
	}
	m2()
}

func loop(n int) {
	m0()
	for i := 0; i < n; i++ {
		if i == 3 {
			m1()
			break
		}
		m2()
	}
	m3()
}

func deadAfterPanic(b bool) {
	m0()
	if b {
		panic("boom")
	}
	m1()
}

func deadCode() {
	m0()
	return
	m1()
}

func switchFall(n int) {
	switch n {
	case 1:
		m1()
		fallthrough
	case 2:
		m2()
	default:
		m3()
	}
	m4()
}

func gotoLabel(n int) {
	m0()
	if n > 0 {
		goto done
	}
	m1()
done:
	m2()
}

func rangeLoop(xs []int) {
	m0()
	for _, x := range xs {
		if x < 0 {
			return
		}
		m1()
	}
	m2()
}
`

func TestCFGIfElseDominance(t *testing.T) {
	fd, info := typecheckSrc(t, cfgSrc, "ifelse")
	fi := NewFuncInfo(fd.Body, info)
	b0, i0 := locateMarker(t, fi, fd, "m0")
	b1, i1 := locateMarker(t, fi, fd, "m1")
	b2, _ := locateMarker(t, fi, fd, "m2")
	b3, i3 := locateMarker(t, fi, fd, "m3")
	if !fi.StmtDominates(b0, i0, b1, i1) {
		t.Error("m0 should dominate m1")
	}
	if !fi.StmtDominates(b0, i0, b3, i3) {
		t.Error("m0 should dominate m3")
	}
	if fi.StmtDominates(b1, i1, b3, i3) {
		t.Error("m1 (then branch) must not dominate m3 (join)")
	}
	if b1 == b2 {
		t.Error("then/else markers must be in different blocks")
	}
	if !fi.PostDominates(b3, b1) || !fi.PostDominates(b3, b2) {
		t.Error("join must postdominate both branches")
	}
	if fi.PostDominates(b1, b0) {
		t.Error("then branch must not postdominate the entry")
	}
}

func TestCFGEarlyReturn(t *testing.T) {
	fd, info := typecheckSrc(t, cfgSrc, "earlyReturn")
	fi := NewFuncInfo(fd.Body, info)
	b1, _ := locateMarker(t, fi, fd, "m1")
	b2, i2 := locateMarker(t, fi, fd, "m2")
	b0, i0 := locateMarker(t, fi, fd, "m0")
	if fi.StmtDominates(b1, 0, b2, i2) {
		t.Error("returned branch must not dominate the fallthrough path")
	}
	if !fi.StmtDominates(b0, i0, b2, i2) {
		t.Error("m0 dominates everything")
	}
	// m2 does not postdominate m1: m1's path returns first.
	if fi.PostDominates(b2, b1) {
		t.Error("m2 must not postdominate the early-returning branch")
	}
}

func TestCFGLoop(t *testing.T) {
	fd, info := typecheckSrc(t, cfgSrc, "loop")
	fi := NewFuncInfo(fd.Body, info)
	b1, _ := locateMarker(t, fi, fd, "m1") // break branch
	b2, _ := locateMarker(t, fi, fd, "m2") // loop body tail
	b3, _ := locateMarker(t, fi, fd, "m3") // after loop
	if !fi.Reachable(b1) || !fi.Reachable(b2) || !fi.Reachable(b3) {
		t.Fatal("all markers must be reachable")
	}
	if fi.Dominates(b2, b3) {
		t.Error("loop body tail must not dominate the code after the loop (break skips it)")
	}
	if fi.Dominates(b1, b3) {
		t.Error("break branch must not dominate the code after the loop (cond-false exits too)")
	}
	if !fi.PostDominates(b3, b2) {
		t.Error("code after the loop must postdominate the body tail")
	}
}

func TestCFGTerminalAndDeadCode(t *testing.T) {
	fd, info := typecheckSrc(t, cfgSrc, "deadAfterPanic")
	fi := NewFuncInfo(fd.Body, info)
	b1, _ := locateMarker(t, fi, fd, "m1")
	if !fi.Reachable(b1) {
		t.Error("m1 is reachable via the non-panicking path")
	}
	// A panic must feed the exit block, so m1 does NOT postdominate m0.
	b0, _ := locateMarker(t, fi, fd, "m0")
	if fi.PostDominates(b1, b0) {
		t.Error("m1 must not postdominate m0: the panic path bypasses it")
	}

	fd, info = typecheckSrc(t, cfgSrc, "deadCode")
	fi = NewFuncInfo(fd.Body, info)
	b1, _, ok := fi.Locate(markerCall(t, fd, "m1"))
	if !ok {
		t.Fatal("dead statement should still be located")
	}
	if fi.Reachable(b1) {
		t.Error("statement after return must be unreachable")
	}
}

func TestCFGSwitchFallthrough(t *testing.T) {
	fd, info := typecheckSrc(t, cfgSrc, "switchFall")
	fi := NewFuncInfo(fd.Body, info)
	b1, _ := locateMarker(t, fi, fd, "m1")
	b2, _ := locateMarker(t, fi, fd, "m2")
	b4, _ := locateMarker(t, fi, fd, "m4")
	// fallthrough: case-1 body must have an edge into case-2's body block.
	found := false
	for _, s := range b1.Succs {
		if s == b2 {
			found = true
		}
	}
	if !found {
		t.Error("fallthrough edge from case 1 to case 2 missing")
	}
	if !fi.PostDominates(b4, b1) {
		t.Error("statement after switch must postdominate every case")
	}
	if fi.Dominates(b2, b4) {
		t.Error("case 2 must not dominate the statement after the switch")
	}
}

func TestCFGGoto(t *testing.T) {
	fd, info := typecheckSrc(t, cfgSrc, "gotoLabel")
	fi := NewFuncInfo(fd.Body, info)
	b1, _ := locateMarker(t, fi, fd, "m1")
	b2, _ := locateMarker(t, fi, fd, "m2")
	if !fi.Reachable(b2) {
		t.Fatal("label target must be reachable")
	}
	if fi.Dominates(b1, b2) {
		t.Error("m1 must not dominate the label target: the goto path skips it")
	}
	if !fi.PostDominates(b2, b1) {
		t.Error("label target must postdominate m1")
	}
}

func TestCFGRangeLoop(t *testing.T) {
	fd, info := typecheckSrc(t, cfgSrc, "rangeLoop")
	fi := NewFuncInfo(fd.Body, info)
	b1, _ := locateMarker(t, fi, fd, "m1")
	b2, _ := locateMarker(t, fi, fd, "m2")
	if !fi.Reachable(b1) || !fi.Reachable(b2) {
		t.Fatal("loop body and post-loop code must be reachable")
	}
	if fi.Dominates(b1, b2) {
		t.Error("loop body must not dominate post-loop code (zero iterations)")
	}
	if fi.PostDominates(b1, b2) {
		t.Error("loop body must not postdominate post-loop code")
	}
}

// PostDominates reports whether every path from b to the function exit
// passes through a. No analyzer needs postdominators, so the tests compute
// them on demand.
func (fi *FuncInfo) PostDominates(a, b *Block) bool {
	ipdom := immediateDoms(fi.G, fi.G.Exit, func(b *Block) []*Block { return b.Succs }, fi.prpo, fi.prpoNum)
	return dominates(ipdom, fi.prpoNum, a, b, fi.G)
}
