// Package kernelctx flags kernel calls made from raw goroutines. The
// simulation kernel is single-threaded: every event callback runs on the
// goroutine that calls Kernel.Run or Kernel.Step. A plain
// `go func() { k.Schedule(...) }` goroutine is outside that discipline:
// it mutates the event calendar concurrently with the kernel, which
// corrupts the heap or reorders events, and -race only catches it when
// the interleaving happens to fire.
package kernelctx

import (
	"go/ast"
	"go/types"

	"mobicache/internal/analyzers/framework"
)

// calendar lists the Kernel methods that read or mutate the event
// calendar and so may only run on the kernel's own goroutine.
var calendar = map[string]bool{"Schedule": true, "At": true, "Run": true, "Step": true}

// Analyzer is the kernelctx check.
var Analyzer = &framework.Analyzer{
	Name: "kernelctx",
	Doc: "flag Kernel.Schedule/At/Run/Step calls from raw `go` goroutines; " +
		"the event calendar belongs to the goroutine running the kernel",
	Run: run,
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			// The analyzer is lexical: it walks the direct
			// `go func(){...}()` form, which is the pattern that reaches
			// the kernel in practice.
			if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
				checkGoroutineBody(pass, lit.Body)
			}
			return true
		})
	}
	return nil
}

// checkGoroutineBody reports calendar calls reachable lexically from a raw
// goroutine body.
func checkGoroutineBody(pass *framework.Pass, body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if name, ok := kernelMethod(pass, sel); ok && calendar[name] {
			pass.Reportf(call.Pos(),
				"sim.Kernel.%s called from a raw goroutine: the event calendar may only be touched from the goroutine running the kernel",
				name)
		}
		return true
	})
}

// kernelMethod resolves sel to a method name when sel is a method of
// mobicache/internal/sim's Kernel.
func kernelMethod(pass *framework.Pass, sel *ast.SelectorExpr) (string, bool) {
	obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return "", false
	}
	tn := named.Obj()
	if tn.Name() != "Kernel" || tn.Pkg() == nil || !framework.PathHasSuffix(tn.Pkg().Path(), "internal/sim") {
		return "", false
	}
	return obj.Name(), true
}
