// Package hotalloc enforces the allocation-free contract of functions
// annotated `//joinpebble:hotpath` — the CSR adjacency lookup, the
// canonical fingerprint kernels, the zigzag emission kernel, and the
// disarmed faultinject.Fire path, whose per-call costs the bench
// regression baselines pin.
//
// The check is intraprocedural: the annotated body itself must contain
// no allocating construct. Callees are not followed — a hot path that
// needs a helper must either annotate the helper too or accept that
// the helper's allocations are the helper's business (the bench
// harness still watches the end-to-end cost).
//
// Flagged constructs: calls into package fmt, the append/make/new
// builtins, map and slice composite literals, &T{...}, go statements,
// closures capturing local state, conversions that box a non-pointer
// value into an interface, non-constant string concatenation, and
// string<->[]byte/[]rune conversions.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"joinpebble/internal/analysis"
)

// Annotation marks a function whose body hotalloc checks.
const Annotation = "//joinpebble:hotpath"

// Analyzer is the hotalloc pass.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "functions annotated " + Annotation + " must not allocate",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !annotated(fd) {
				continue
			}
			checkBody(pass, fd)
		}
	}
	return nil
}

func annotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, Annotation) {
			return true
		}
	}
	return false
}

func checkBody(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	name := fd.Name.Name
	analysis.WithStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, name, n)
		case *ast.CompositeLit:
			checkCompositeLit(pass, name, n, stack)
		case *ast.FuncLit:
			if obj := firstCapture(info, fd, n); obj != nil {
				pass.Reportf(n.Pos(), "hotpath %s: closure captures %s and escapes to the heap", name, obj.Name())
			}
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "hotpath %s: go statement allocates a goroutine", name)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(info.TypeOf(n)) {
				if tv, ok := info.Types[n]; !ok || tv.Value == nil {
					pass.Reportf(n.Pos(), "hotpath %s: non-constant string concatenation allocates", name)
				}
			}
		}
		checkInterfaceConversions(pass, name, n)
		return true
	})
}

func checkCall(pass *analysis.Pass, name string, call *ast.CallExpr) {
	info := pass.TypesInfo
	// Builtins and conversions appear as calls.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				pass.Reportf(call.Pos(), "hotpath %s: append may grow and reallocate; preallocate outside the hot path and index instead", name)
			case "make", "new":
				pass.Reportf(call.Pos(), "hotpath %s: %s allocates", name, b.Name())
			}
			return
		}
	}
	if tv, ok := info.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() {
		// A conversion. Boxing into interfaces is handled by
		// checkInterfaceConversions; here catch string<->bytes copies.
		dst := tv.Type
		if len(call.Args) == 1 {
			src := info.TypeOf(call.Args[0])
			if allocatingStringConversion(dst, src) {
				pass.Reportf(call.Pos(), "hotpath %s: conversion %s -> %s copies its operand", name, types.TypeString(src, types.RelativeTo(pass.Pkg)), types.TypeString(dst, types.RelativeTo(pass.Pkg)))
			}
		}
		return
	}
	if fn := analysis.CalleeFunc(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(), "hotpath %s: fmt.%s allocates (formatting state and boxed operands)", name, fn.Name())
	}
}

func checkCompositeLit(pass *analysis.Pass, name string, lit *ast.CompositeLit, stack []ast.Node) {
	t := pass.TypesInfo.TypeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Map:
		pass.Reportf(lit.Pos(), "hotpath %s: map literal allocates", name)
		return
	case *types.Slice:
		pass.Reportf(lit.Pos(), "hotpath %s: slice literal allocates", name)
		return
	}
	// &T{...}: the value escapes through the pointer.
	if len(stack) > 0 {
		if u, ok := stack[len(stack)-1].(*ast.UnaryExpr); ok && u.Op == token.AND && ast.Unparen(u.X) == lit {
			pass.Reportf(u.Pos(), "hotpath %s: &composite literal allocates", name)
		}
	}
}

// checkInterfaceConversions flags places where a non-pointer-shaped
// concrete value is converted (explicitly or by assignment, return, or
// argument passing) to an interface type — the conversions that box.
func checkInterfaceConversions(pass *analysis.Pass, name string, n ast.Node) {
	info := pass.TypesInfo
	flag := func(pos token.Pos, src types.Type) {
		pass.Reportf(pos, "hotpath %s: converting %s to an interface allocates", name, types.TypeString(src, types.RelativeTo(pass.Pkg)))
	}
	check := func(pos token.Pos, dst types.Type, val ast.Expr) {
		if dst == nil || val == nil || !types.IsInterface(dst) {
			return
		}
		src := info.TypeOf(val)
		if src == nil || types.IsInterface(src) || boxesForFree(src) {
			return
		}
		if tv, ok := info.Types[val]; ok && tv.Value != nil {
			return // constants stay in rodata or the small-value cache
		}
		flag(pos, src)
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Lhs) == len(n.Rhs) {
			for i := range n.Lhs {
				check(n.Rhs[i].Pos(), info.TypeOf(n.Lhs[i]), n.Rhs[i])
			}
		}
	case *ast.ValueSpec:
		if n.Type != nil && len(n.Names) == len(n.Values) {
			dst := info.TypeOf(n.Type)
			for i := range n.Names {
				check(n.Values[i].Pos(), dst, n.Values[i])
			}
		}
	case *ast.CallExpr:
		if tv, ok := info.Types[ast.Unparen(n.Fun)]; ok && tv.IsType() {
			if len(n.Args) == 1 {
				check(n.Pos(), tv.Type, n.Args[0])
			}
			return
		}
		sig, ok := info.TypeOf(n.Fun).(*types.Signature)
		if !ok {
			return
		}
		for i, arg := range n.Args {
			var pt types.Type
			switch {
			case sig.Variadic() && i >= sig.Params().Len()-1:
				if n.Ellipsis.IsValid() {
					continue // forwarded slice, no element boxing here
				}
				pt = sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem()
			case i < sig.Params().Len():
				pt = sig.Params().At(i).Type()
			}
			check(arg.Pos(), pt, arg)
		}
	case *ast.ReturnStmt:
		// Handled conservatively: only single-result direct returns.
		// Multi-value returns into interface results are rare in hot
		// paths and the assignment form above covers the common case.
	}
}

// boxesForFree reports whether values of t fit an interface word
// without a heap copy (pointer-shaped types).
func boxesForFree(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return true
	}
	return false
}

func allocatingStringConversion(dst, src types.Type) bool {
	return (isString(dst) && isByteOrRuneSlice(src)) || (isByteOrRuneSlice(dst) && isString(src))
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune)
}

// firstCapture returns a variable the closure captures from its
// enclosing function, or nil if the closure is capture-free (static
// closures don't allocate).
func firstCapture(info *types.Info, outer *ast.FuncDecl, lit *ast.FuncLit) types.Object {
	var captured types.Object
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok || obj.IsField() || analysis.IsPackageLevel(obj) {
			return true
		}
		// Captured = declared in the outer function but outside the
		// literal itself.
		if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
			return true
		}
		if obj.Pos() >= outer.Pos() && obj.Pos() <= outer.End() {
			captured = obj
			return false
		}
		return true
	})
	return captured
}
