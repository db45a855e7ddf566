// Package hotpath enforces the fast-path discipline of functions annotated
// //lcrq:hotpath.
//
// The paper's throughput numbers depend on the operation fast path being a
// short straight line of loads, stores, and one F&A/CAS2 — no allocation,
// no blocking, no scheduler interaction. Today that property is guarded
// only by overhead benchmarks, which detect a regression but not its
// source. This analyzer rejects, inside annotated functions:
//
//   - allocation syntax: make, new, append, composite literals, func
//     literals (closures capture and escape), and non-constant string
//     concatenation;
//   - blocking and scheduling: go statements, select statements, channel
//     sends and receives, time.Sleep, runtime.Gosched, and any method call
//     on a sync package type (Mutex, RWMutex, WaitGroup, Cond, Once, Pool
//     — the sync/atomic wrappers are of course allowed);
//   - map writes (which may allocate and are never safe under concurrent
//     readers anyway);
//   - calls to value-receiver methods whose receiver struct is larger than
//     a cache line (64 B), which copy the receiver on every call. A
//     Config.Bounded() check re-normalizing the whole configuration per
//     operation is the shape this catches; cache the answer in a field.
//
// Plain calls remain allowed: responsibility propagates by annotating the
// callees that are themselves on the fast path, while deliberate slow-path
// calls (ring allocation, taps) stay callable. Defer and panic are allowed:
// defer is open-coded and free of allocation since Go 1.13, and panics are
// the repo's misuse reports, off the measured path.
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"

	"lcrq/internal/analysis/lintutil"
	"lcrq/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc:  "forbid allocation, blocking, and scheduler operations in functions annotated //lcrq:hotpath",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if _, hot := lintutil.FuncDirective(fn, "hotpath"); !hot {
				continue
			}
			checkBody(pass, fn)
		}
	}
	return nil, nil
}

func checkBody(pass *analysis.Pass, fn *ast.FuncDecl) {
	name := fn.Name.Name
	report := func(n ast.Node, what string) {
		pass.Reportf(n.Pos(), "%s in //lcrq:hotpath function %s: the fast path must not allocate, block, or yield", what, name)
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			report(n, "composite literal (allocation)")
		case *ast.FuncLit:
			report(n, "function literal (closure allocation)")
			return false // don't double-report the closure's body
		case *ast.GoStmt:
			report(n, "go statement")
		case *ast.SelectStmt:
			report(n, "select statement")
		case *ast.SendStmt:
			report(n, "channel send")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				report(n, "channel receive")
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && !isConst(pass, n) && isString(pass, n.X) {
				report(n, "string concatenation (allocation)")
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && isMap(pass, ix.X) {
					report(n, "map write")
				}
			}
		case *ast.CallExpr:
			checkCall(pass, n, report)
			checkRecvCopy(pass, n, name)
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr, report func(ast.Node, string)) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := pass.TypesInfo.Uses[fun].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new", "append":
				report(call, b.Name()+" (allocation)")
			}
		}
	case *ast.SelectorExpr:
		obj := pass.TypesInfo.Uses[fun.Sel]
		f, ok := obj.(*types.Func)
		if !ok {
			return
		}
		pkg := f.Pkg()
		if pkg == nil {
			return
		}
		switch {
		case pkg.Path() == "time" && f.Name() == "Sleep":
			report(call, "time.Sleep")
		case pkg.Path() == "runtime" && f.Name() == "Gosched":
			report(call, "runtime.Gosched")
		case pkg.Path() == "sync":
			// A method on a sync type (Mutex.Lock, Pool.Get, ...) has a
			// receiver; package-level sync functions (OnceFunc) allocate.
			report(call, "sync."+recvPrefix(f)+f.Name()+" (blocking/allocating)")
		}
	}
}

// maxRecvCopy is the largest value receiver a hot call may copy: one
// cache line.
const maxRecvCopy = 64

// checkRecvCopy reports a call to a value-receiver method whose receiver
// struct exceeds maxRecvCopy bytes.
func checkRecvCopy(pass *analysis.Pass, call *ast.CallExpr, name string) {
	fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	sel, ok := pass.TypesInfo.Selections[fun]
	if !ok || sel.Kind() != types.MethodVal {
		return
	}
	recv := sel.Obj().Type().(*types.Signature).Recv().Type()
	named, ok := types.Unalias(recv).(*types.Named)
	if !ok || (named.TypeParams().Len() > 0 && named.TypeArgs().Len() == 0) {
		return // pointer receivers, interface methods, uninstantiated generics
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return
	}
	if size := pass.TypesSizes.Sizeof(named); size > maxRecvCopy {
		pass.Reportf(call.Pos(), "call to value-receiver method %s.%s in //lcrq:hotpath function %s copies its %d-byte receiver on every call; use a pointer receiver or cache the result",
			named.Obj().Name(), sel.Obj().Name(), name, size)
	}
}

func recvPrefix(f *types.Func) string {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := types.Unalias(t).(*types.Named); ok {
		return named.Obj().Name() + "."
	}
	return ""
}

func isConst(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.Value != nil
}

func isString(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isMap(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
