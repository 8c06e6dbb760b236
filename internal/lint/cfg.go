package lint

// cfg.go — per-function control-flow graphs over go/ast, plus dominance.
//
// This is the foundation the path-sensitive analyzers (lockguard,
// commitorder, httpterm, deferclose) share. It stays deliberately small:
// basic blocks of statement-level AST nodes, explicit edges for every Go
// control construct, calls that provably never return (panic, os.Exit,
// log.Fatal*) routed straight to the exit block, and an iterative
// dominator tree computed with the Cooper–Harvey–Kennedy algorithm.
// Function literals are NOT flattened into the enclosing graph — a FuncLit
// is an opaque value here, and analyzers build a separate CFG for its body
// if they care.
//
// The graph intentionally models defer as a plain statement in the block
// where it executes: a deferred unlock or close runs at function exit, so
// it must not change mid-function dataflow state. Analyzers that need the
// deferred calls themselves (deferclose) read CFG.Defers.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Block is a basic block: a maximal straight-line sequence of statement
// nodes with edges only at the end. Stmts holds the nodes in execution
// order; they are statements except for condition/tag expressions
// (IfStmt.Cond, ForStmt.Cond, SwitchStmt.Tag), which appear as bare
// ast.Expr nodes in the block that evaluates them.
type Block struct {
	Index int
	Stmts []ast.Node
	Succs []*Block
	Preds []*Block
}

// CFG is the control-flow graph of one function body. Entry is always
// Blocks[0]; Exit is a synthetic empty block that every return, panic and
// fallen-off-the-end path feeds into.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block
	// Defers lists every defer statement in the body, in source order,
	// excluding those inside nested function literals.
	Defers []*ast.DeferStmt
}

type branchTarget struct {
	label string
	block *Block
	loop  bool // continue-able
}

type pendingGoto struct {
	from *Block
	name string
}

type cfgBuilder struct {
	g            *CFG
	info         *types.Info
	cur          *Block
	breaks       []branchTarget
	continues    []branchTarget
	labels       map[string]*Block
	gotos        []pendingGoto
	fallTarget   *Block // next case body during switch construction
	pendingLabel string
}

// NewCFG builds the control-flow graph for one function body. info is
// used only to recognize calls that never return; it may be nil, in which
// case only the panic builtin (matched syntactically) terminates a block.
func NewCFG(body *ast.BlockStmt, info *types.Info) *CFG {
	b := &cfgBuilder{
		g:      &CFG{},
		info:   info,
		labels: make(map[string]*Block),
	}
	b.g.Entry = b.newBlock()
	b.g.Exit = b.newBlock()
	b.cur = b.g.Entry
	b.stmt(body)
	b.edge(b.cur, b.g.Exit)
	for _, pg := range b.gotos {
		if t := b.labels[pg.name]; t != nil {
			b.edge(pg.from, t)
		}
	}
	return b.g
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

func (b *cfgBuilder) add(n ast.Node) {
	b.cur.Stmts = append(b.cur.Stmts, n)
}

// seal ends the current block with no fallthrough successor (after a
// return, goto, break, …) and starts a fresh — initially unreachable —
// block for any trailing dead code.
func (b *cfgBuilder) seal() {
	b.cur = b.newBlock()
}

func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) findBreak(label string) *Block {
	for i := len(b.breaks) - 1; i >= 0; i-- {
		if label == "" || b.breaks[i].label == label {
			return b.breaks[i].block
		}
	}
	return nil
}

func (b *cfgBuilder) findContinue(label string) *Block {
	for i := len(b.continues) - 1; i >= 0; i-- {
		if !b.continues[i].loop {
			continue
		}
		if label == "" || b.continues[i].label == label {
			return b.continues[i].block
		}
	}
	return nil
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case nil:
		return
	case *ast.BlockStmt:
		for _, s2 := range st.List {
			b.stmt(s2)
		}
	case *ast.LabeledStmt:
		lb := b.newBlock()
		b.edge(b.cur, lb)
		b.cur = lb
		b.labels[st.Label.Name] = lb
		b.pendingLabel = st.Label.Name
		b.stmt(st.Stmt)
		b.pendingLabel = ""
	case *ast.IfStmt:
		b.stmt(st.Init)
		b.add(st.Cond)
		cond := b.cur
		then := b.newBlock()
		b.edge(cond, then)
		b.cur = then
		b.stmt(st.Body)
		thenEnd := b.cur
		join := b.newBlock()
		if st.Else != nil {
			els := b.newBlock()
			b.edge(cond, els)
			b.cur = els
			b.stmt(st.Else)
			b.edge(b.cur, join)
		} else {
			b.edge(cond, join)
		}
		b.edge(thenEnd, join)
		b.cur = join
	case *ast.ForStmt:
		label := b.takeLabel()
		b.stmt(st.Init)
		head := b.newBlock()
		b.edge(b.cur, head)
		b.cur = head
		if st.Cond != nil {
			b.add(st.Cond)
		}
		body := b.newBlock()
		b.edge(head, body)
		exit := b.newBlock()
		if st.Cond != nil {
			b.edge(head, exit)
		}
		post := b.newBlock()
		b.breaks = append(b.breaks, branchTarget{label, exit, true})
		b.continues = append(b.continues, branchTarget{label, post, true})
		b.cur = body
		b.stmt(st.Body)
		b.edge(b.cur, post)
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]
		b.cur = post
		b.stmt(st.Post)
		b.edge(b.cur, head)
		b.cur = exit
	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock()
		b.edge(b.cur, head)
		b.cur = head
		b.add(st) // range expr eval + key/value assignment per iteration
		body := b.newBlock()
		b.edge(head, body)
		exit := b.newBlock()
		b.edge(head, exit)
		b.breaks = append(b.breaks, branchTarget{label, exit, true})
		b.continues = append(b.continues, branchTarget{label, head, true})
		b.cur = body
		b.stmt(st.Body)
		b.edge(b.cur, head)
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]
		b.cur = exit
	case *ast.SwitchStmt:
		label := b.takeLabel()
		b.stmt(st.Init)
		if st.Tag != nil {
			b.add(st.Tag)
		}
		b.caseClauses(label, st.Body, func(cc *ast.CaseClause) ([]ast.Stmt, bool) {
			return cc.Body, cc.List == nil
		})
	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		b.stmt(st.Init)
		b.add(st.Assign)
		b.caseClauses(label, st.Body, func(cc *ast.CaseClause) ([]ast.Stmt, bool) {
			return cc.Body, cc.List == nil
		})
	case *ast.SelectStmt:
		label := b.takeLabel()
		head := b.cur
		exit := b.newBlock()
		b.breaks = append(b.breaks, branchTarget{label, exit, false})
		for _, cl := range st.Body.List {
			cc := cl.(*ast.CommClause)
			blk := b.newBlock()
			b.edge(head, blk)
			b.cur = blk
			b.stmt(cc.Comm)
			for _, s2 := range cc.Body {
				b.stmt(s2)
			}
			b.edge(b.cur, exit)
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.cur = exit
	case *ast.BranchStmt:
		b.add(st)
		name := ""
		if st.Label != nil {
			name = st.Label.Name
		}
		switch st.Tok {
		case token.BREAK:
			if t := b.findBreak(name); t != nil {
				b.edge(b.cur, t)
			}
		case token.CONTINUE:
			if t := b.findContinue(name); t != nil {
				b.edge(b.cur, t)
			}
		case token.GOTO:
			b.gotos = append(b.gotos, pendingGoto{b.cur, name})
		case token.FALLTHROUGH:
			if b.fallTarget != nil {
				b.edge(b.cur, b.fallTarget)
			}
		}
		b.seal()
	case *ast.ReturnStmt:
		b.add(st)
		b.edge(b.cur, b.g.Exit)
		b.seal()
	case *ast.DeferStmt:
		b.add(st)
		b.g.Defers = append(b.g.Defers, st)
	case *ast.ExprStmt:
		b.add(st)
		if call, ok := st.X.(*ast.CallExpr); ok && terminalCall(b.info, call) {
			b.edge(b.cur, b.g.Exit)
			b.seal()
		}
	default:
		// AssignStmt, DeclStmt, IncDecStmt, SendStmt, GoStmt, EmptyStmt, …
		b.add(st)
	}
}

// caseClauses builds the shared switch/type-switch shape: the current
// block fans out to one block per case, fallthrough chains case i to case
// i+1, and a missing default adds a head→join edge.
func (b *cfgBuilder) caseClauses(label string, body *ast.BlockStmt, split func(*ast.CaseClause) ([]ast.Stmt, bool)) {
	head := b.cur
	exit := b.newBlock()
	b.breaks = append(b.breaks, branchTarget{label, exit, false})
	hasDefault := false
	caseBlocks := make([]*Block, len(body.List))
	for i, cl := range body.List {
		caseBlocks[i] = b.newBlock()
		b.edge(head, caseBlocks[i])
		if _, isDefault := split(cl.(*ast.CaseClause)); isDefault {
			hasDefault = true
		}
	}
	savedFall := b.fallTarget
	for i, cl := range body.List {
		stmts, _ := split(cl.(*ast.CaseClause))
		if i+1 < len(caseBlocks) {
			b.fallTarget = caseBlocks[i+1]
		} else {
			b.fallTarget = nil
		}
		b.cur = caseBlocks[i]
		for _, s2 := range stmts {
			b.stmt(s2)
		}
		b.edge(b.cur, exit)
	}
	b.fallTarget = savedFall
	if !hasDefault {
		b.edge(head, exit)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = exit
}

// terminalCall reports whether call provably never returns: the panic
// builtin, os.Exit, runtime.Goexit, or log.Fatal/Fatalf/Fatalln.
func terminalCall(info *types.Info, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fun.Name != "panic" {
			return false
		}
		if info == nil {
			return true
		}
		_, isBuiltin := info.Uses[fun].(*types.Builtin)
		return isBuiltin
	case *ast.SelectorExpr:
		if info == nil {
			return false
		}
		fn, ok := info.Uses[fun.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return false
		}
		switch fn.Pkg().Path() {
		case "os":
			return fn.Name() == "Exit"
		case "runtime":
			return fn.Name() == "Goexit"
		case "log":
			switch fn.Name() {
			case "Fatal", "Fatalf", "Fatalln", "Panic", "Panicf", "Panicln":
				return true
			}
		}
	}
	return false
}

// inspectBlockNode visits the AST under one block statement node the way
// statement-level scanners should: a *ast.RangeStmt node stands for the
// loop HEAD only (its body statements live in their own blocks), so only
// the range operands are visited; nested function literals are skipped.
func inspectBlockNode(n ast.Node, f func(ast.Node) bool) {
	walk := func(sub ast.Node) {
		if sub == nil {
			return
		}
		ast.Inspect(sub, func(d ast.Node) bool {
			if _, ok := d.(*ast.FuncLit); ok {
				return false
			}
			return f(d)
		})
	}
	if rs, ok := n.(*ast.RangeStmt); ok {
		walk(rs.Key)
		walk(rs.Value)
		walk(rs.X)
		return
	}
	walk(n)
}

// stmtLoc pins an AST node to the block statement that contains it.
type stmtLoc struct {
	b   *Block
	idx int
}

// FuncInfo bundles a CFG with its dominance facts and a node→block
// location index — the query surface analyzers build on.
type FuncInfo struct {
	G    *CFG
	Info *types.Info

	rpoNum  []int // block index → order in forward reverse-postorder; -1 if unreachable from entry
	rpo     []*Block
	idom    []int // block index → idom block index; root maps to itself; -1 undefined
	prpoNum []int // same, on the reverse graph rooted at Exit
	prpo    []*Block

	loc map[ast.Node]stmtLoc
}

// NewFuncInfo computes dominators, the reverse-graph postorder the
// backward dataflow solver walks, and the location index for body.
func NewFuncInfo(body *ast.BlockStmt, info *types.Info) *FuncInfo {
	g := NewCFG(body, info)
	fi := &FuncInfo{G: g, Info: info, loc: make(map[ast.Node]stmtLoc)}
	fi.rpo, fi.rpoNum = postorderNumbering(g, g.Entry, func(b *Block) []*Block { return b.Succs })
	fi.idom = immediateDoms(g, g.Entry, func(b *Block) []*Block { return b.Preds }, fi.rpo, fi.rpoNum)
	fi.prpo, fi.prpoNum = postorderNumbering(g, g.Exit, func(b *Block) []*Block { return b.Preds })
	for _, blk := range g.Blocks {
		for i, n := range blk.Stmts {
			l := stmtLoc{blk, i}
			ast.Inspect(n, func(d ast.Node) bool {
				if d != nil {
					fi.loc[d] = l
				}
				return true
			})
		}
	}
	return fi
}

// Reachable reports whether b is reachable from the function entry.
func (fi *FuncInfo) Reachable(b *Block) bool { return fi.rpoNum[b.Index] >= 0 }

// Locate returns the block and in-block statement position holding node
// n (or any statement n is nested inside). ok is false for nodes that
// never made it into a block — unreachable only for synthetic nodes.
func (fi *FuncInfo) Locate(n ast.Node) (b *Block, idx int, ok bool) {
	l, ok := fi.loc[n]
	return l.b, l.idx, ok
}

// Dominates reports whether every path from entry to b passes through a.
// Unreachable blocks dominate nothing and are dominated by nothing.
func (fi *FuncInfo) Dominates(a, b *Block) bool {
	return dominates(fi.idom, fi.rpoNum, a, b, fi.G)
}

// StmtDominates reports whether the statement at (ab, ai) executes on
// every path before the statement at (bb, bi).
func (fi *FuncInfo) StmtDominates(ab *Block, ai int, bb *Block, bi int) bool {
	if ab == bb {
		return ai < bi
	}
	return fi.Dominates(ab, bb)
}

func dominates(idom, num []int, a, b *Block, g *CFG) bool {
	if num[a.Index] < 0 || num[b.Index] < 0 {
		return false
	}
	for {
		if a == b {
			return true
		}
		i := idom[b.Index]
		if i < 0 || i == b.Index {
			return false
		}
		b = g.Blocks[i]
	}
}

// postorderNumbering runs a DFS from root along succs and returns the
// visited blocks in reverse postorder plus a block-index→order table
// (-1 for blocks the DFS never reached).
func postorderNumbering(g *CFG, root *Block, succs func(*Block) []*Block) ([]*Block, []int) {
	num := make([]int, len(g.Blocks))
	for i := range num {
		num[i] = -1
	}
	seen := make([]bool, len(g.Blocks))
	var order []*Block
	var dfs func(*Block)
	dfs = func(b *Block) {
		seen[b.Index] = true
		for _, s := range succs(b) {
			if !seen[s.Index] {
				dfs(s)
			}
		}
		order = append(order, b)
	}
	dfs(root)
	// reverse into RPO
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	for i, b := range order {
		num[b.Index] = i
	}
	return order, num
}

// immediateDoms is the Cooper–Harvey–Kennedy iterative dominator
// algorithm, generic over graph direction: pass preds+forward RPO for
// dominators, succs+reverse RPO for postdominators.
func immediateDoms(g *CFG, root *Block, preds func(*Block) []*Block, rpo []*Block, rpoNum []int) []int {
	idom := make([]int, len(g.Blocks))
	for i := range idom {
		idom[i] = -1
	}
	idom[root.Index] = root.Index
	intersect := func(a, b int) int {
		for a != b {
			for rpoNum[a] > rpoNum[b] {
				a = idom[a]
			}
			for rpoNum[b] > rpoNum[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == root {
				continue
			}
			newIdom := -1
			for _, p := range preds(b) {
				if rpoNum[p.Index] < 0 || idom[p.Index] < 0 {
					continue
				}
				if newIdom < 0 {
					newIdom = p.Index
				} else {
					newIdom = intersect(p.Index, newIdom)
				}
			}
			if newIdom >= 0 && idom[b.Index] != newIdom {
				idom[b.Index] = newIdom
				changed = true
			}
		}
	}
	return idom
}
