package analysis

import (
	"go/ast"
)

// RecoverBarrier enforces the containment discipline of the packages that
// run tile kernels: every goroutine spawned there executes kernels, and an
// uncontained panic in a worker kills the whole process (a goroutine panic
// cannot be recovered by anyone else). A `go` statement is accepted when
// the spawned function routes through a //qr:containedexec-marked recover
// wrapper (the executor's runTask) or carries its own deferred recover;
// anything else is reported.
//
// Scope: internal/runtime, internal/core and internal/chol (plus the
// analyzer's own fixtures).
var RecoverBarrier = &Analyzer{
	Name:  "recoverbarrier",
	Doc:   "goroutines in kernel-running packages must run behind the recover barrier",
	Scope: []string{"internal/runtime", "internal/core", "internal/chol", "testdata/src/recoverbarrier"},
	Run:   runRecoverBarrier,
}

func runRecoverBarrier(pass *Pass) {
	for _, fd := range funcsOf(pass.Pkg) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !containedCall(pass, g.Call) {
				pass.Reportf(g.Pos(), "goroutine is not contained: no deferred recover and no call to a //qr:containedexec wrapper on its path")
			}
			return true
		})
	}
}

// containedCall reports whether the function a go statement invokes is
// contained: a function literal is inspected directly, a named in-module
// function is accepted when marked //qr:containedexec or when its own body
// is contained.
func containedCall(pass *Pass, call *ast.CallExpr) bool {
	if fl, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return containedBody(pass, fl.Body)
	}
	fn := Callee(pass.Pkg.Info, call)
	if fn == nil {
		return false
	}
	fi := pass.Prog.Func(fn)
	if fi == nil {
		return false
	}
	if fi.Pkg.Contained(fi.Decl) {
		return true
	}
	return containedBody(pass, fi.Decl.Body)
}

// containedBody accepts a body that (a) defers an inline recover(), or
// (b) defers or calls a //qr:containedexec-marked function, anywhere in
// the body outside nested goroutines (which are checked on their own).
func containedBody(pass *Pass, body *ast.BlockStmt) bool {
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			return false // separate goroutine, checked separately
		case *ast.DeferStmt:
			if fl, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok && callsRecover(fl.Body) {
				found = true
				return false
			}
			if isContainedCallee(pass, n.Call) {
				found = true
				return false
			}
		case *ast.CallExpr:
			if isContainedCallee(pass, n) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isContainedCallee reports whether the call's static callee carries
// //qr:containedexec.
func isContainedCallee(pass *Pass, call *ast.CallExpr) bool {
	fn := Callee(pass.Pkg.Info, call)
	if fn == nil {
		return false
	}
	fi := pass.Prog.Func(fn)
	return fi != nil && fi.Pkg.Contained(fi.Decl)
}

// callsRecover reports whether the body contains a direct recover() call.
func callsRecover(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "recover" {
				found = true
			}
		}
		return !found
	})
	return found
}
