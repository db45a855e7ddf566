// Package singlewriter enforces the ownership discipline of types
// annotated //lcrq:singlewriter.
//
// The queue keeps its per-handle state — instrument counters, the
// telemetry record — as plain, atomics-free structs owned by one
// goroutine: the handle's. That is a protocol, not a property the
// compiler checks; a helper that pokes a record field
// from the watchdog goroutine compiles fine and races silently. Before
// this analyzer, such fields were justified by ad-hoc //lcrq:exclusive
// comments on whatever functions happened to touch them; the type-level
// annotation states the invariant once, where the state lives.
//
// A struct type annotated //lcrq:singlewriter promises:
//
//   - its fields are mutated only from the type's own method set — the
//     owning handle's methods — or inside the function that constructs the
//     instance (a local composite literal / new(T), before anything else
//     can see it), or in a function annotated //lcrq:exclusive (teardown
//     after quiescence);
//   - it declares no atomic fields (sync/atomic typed wrappers,
//     atomic128.Uint128): single-writer state needs no atomics, and an
//     atomic field is evidence the type is actually shared — one invariant
//     per type, pick the right annotation.
//
// Reads are unrestricted: the single-writer contract makes reads from the
// owner exact and reads from elsewhere advisory, which is how the
// telemetry mirrors consume these structs.
//
// Like every comment-driven check the annotation is only visible in the
// declaring package, so the guarantee is per-package; the repo keeps
// single-writer types and their mutators in one package (unexported
// fields force this anyway).
package singlewriter

import (
	"go/ast"
	"go/types"

	"lcrq/internal/analysis/lintutil"
	"lcrq/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "singlewriter",
	Doc:  "check that //lcrq:singlewriter types are mutated only from their own method set",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	// fields maps each field object of an annotated struct to the struct's
	// named type.
	fields := make(map[types.Object]*types.Named)
	var annotated []*types.Named
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if _, ok := lintutil.TypeDirective(gd, ts, "singlewriter"); !ok {
					continue
				}
				obj, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				st, ok := named.Underlying().(*types.Struct)
				if !ok {
					pass.Reportf(ts.Pos(), "//lcrq:singlewriter annotation on %s, which is not a struct type", ts.Name.Name)
					continue
				}
				annotated = append(annotated, named)
				for i := 0; i < st.NumFields(); i++ {
					f := st.Field(i)
					fields[f] = named
					if lintutil.IsAtomicHot(f.Type()) {
						pass.Reportf(f.Pos(),
							"single-writer type %s declares atomic field %s; single-writer state needs no atomics — drop the atomic or the //lcrq:singlewriter annotation",
							ts.Name.Name, f.Name())
					}
				}
			}
		}
	}
	if len(annotated) == 0 {
		return nil, nil
	}

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if _, exclusive := lintutil.FuncDirective(fn, "exclusive"); exclusive {
				continue
			}
			checkFunc(pass, fn, fields)
		}
	}
	return nil, nil
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl, fields map[types.Object]*types.Named) {
	recv := receiverType(pass, fn)
	parents := lintutil.Parents(fn)
	owned := lintutil.ConstructedLocals(fn, pass.TypesInfo)

	ast.Inspect(fn, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s, ok := pass.TypesInfo.Selections[sel]
		if !ok {
			return true
		}
		named, guarded := fields[s.Obj()]
		if !guarded {
			return true
		}
		if recv != nil && recv == named.Obj() {
			return true // mutation from the type's own method set
		}
		if lintutil.ClassifyAccess(sel, parents) != lintutil.AccessWrite {
			return true
		}
		if root := lintutil.RootIdent(sel); root != nil {
			if ro := pass.TypesInfo.Uses[root]; ro != nil && owned[ro] {
				return true // construction window
			}
		}
		pass.Reportf(sel.Pos(),
			"field %s of single-writer type %s mutated in %s, outside %s's method set; only the owning handle's methods may write it (or annotate the function //lcrq:exclusive for a single-threaded window)",
			s.Obj().Name(), named.Obj().Name(), fn.Name.Name, named.Obj().Name())
		return true
	})
}

// receiverType returns the TypeName of fn's receiver's named type (through
// one pointer), or nil for plain functions.
func receiverType(pass *analysis.Pass, fn *ast.FuncDecl) *types.TypeName {
	f, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func)
	if !ok {
		return nil
	}
	r := f.Signature().Recv()
	if r == nil {
		return nil
	}
	t := r.Type()
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := types.Unalias(t).(*types.Named); ok {
		return named.Obj()
	}
	return nil
}
