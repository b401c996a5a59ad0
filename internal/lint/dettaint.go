package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// DettaintAnalyzer propagates determinism taint across package
// boundaries. The determinism analyzer sees impurities (wall clocks,
// global rand, ordered map iteration, stray goroutines) only inside a
// //leo:deterministic package; dettaint closes the loophole of hiding
// one behind a function call in another package. Every module package
// gets an impurity summary: a function that directly contains an
// unsuppressed taint site, or that calls an impure function, is marked
// with an impureFact. In deterministic packages, a call to an impure
// function of a *different* package is then reported at the call site
// (same-package sites are the determinism analyzer's job).
//
// Suppressions compose left to right: a //leo:allow for the underlying
// class (walltime, globalrand, maprange, goroutine) at the impure site
// prunes the taint at its root — an audited exemption there means
// callers are clean too — while //leo:allow dettaint at a call site
// accepts one propagated edge.
var DettaintAnalyzer = &Analyzer{
	Name:      "dettaint",
	Doc:       "flag deterministic packages calling impure functions of other packages",
	FactTypes: []Fact{(*impureFact)(nil)},
	Run:       runDettaint,
}

// impureFact marks a function whose call breaks replay determinism,
// directly or transitively. Reason is the human-readable taint chain.
type impureFact struct {
	Reason string
}

func (*impureFact) AFact() {}

// dettaintFn is the per-function summary the taint fixpoint runs over.
type dettaintFn struct {
	obj    *types.Func
	reason string          // direct or propagated impurity ("" = pure so far)
	calls  []*types.Func   // resolved callees, in source order
	sites  []*ast.CallExpr // call sites matching calls, for reporting
}

func runDettaint(pass *Pass) error {
	deterministic := pass.packageHasDirective(dirDeterministic)

	// Summarize every function: direct taint sites (minus audited
	// allows) and resolved callees.
	var fns []*dettaintFn
	byObj := make(map[*types.Func]*dettaintFn)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fn := &dettaintFn{obj: obj}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fn.reason == "" {
					for _, s := range taintSitesAt(pass, file, n) {
						if pass.allowed(s.pos(), s.check) || pass.allowed(s.pos(), "dettaint") {
							continue
						}
						fn.reason = fmt.Sprintf("%s (%s)", s.check, shortName(obj))
						break
					}
				}
				if call, ok := n.(*ast.CallExpr); ok {
					if callee := calleeFunc(pass.Info, call); callee != nil && callee.Pkg() != nil && callee.Pkg().Path() != "time" {
						fn.calls = append(fn.calls, callee)
						fn.sites = append(fn.sites, call)
					}
				}
				return true
			})
			fns = append(fns, fn)
			byObj[obj] = fn
		}
	}

	// calleeReason resolves a callee's impurity: same-package functions
	// through the local summaries, imported ones through facts.
	calleeReason := func(callee *types.Func) string {
		if local, ok := byObj[callee]; ok {
			return local.reason
		}
		if callee.Pkg() == pass.Pkg {
			return ""
		}
		var f impureFact
		if pass.ImportObjectFact(callee, &f) {
			return f.Reason
		}
		return ""
	}

	// Fixpoint over local call edges: packages arrive in dependency
	// order, so imported facts are already final; only same-package
	// chains need iteration.
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			if fn.reason != "" {
				continue
			}
			for _, callee := range fn.calls {
				if r := calleeReason(callee); r != "" {
					fn.reason = fmt.Sprintf("calls %s: %s", shortName(callee), r)
					changed = true
					break
				}
			}
		}
	}

	for _, fn := range fns {
		if fn.reason != "" {
			pass.ExportObjectFact(fn.obj, &impureFact{Reason: fn.reason})
		}
	}

	if !deterministic {
		return nil
	}
	for _, fn := range fns {
		for i, callee := range fn.calls {
			if callee.Pkg() == pass.Pkg {
				continue
			}
			var f impureFact
			if !pass.ImportObjectFact(callee, &f) {
				continue
			}
			pass.Reportf(fn.sites[i].Pos(), "dettaint",
				"call to %s breaks replay determinism: %s", shortName(callee), f.Reason)
		}
	}
	return nil
}

// shortName renders a function as pkgname.Name or (pkgname.T).Name —
// the package's short name keeps messages readable across the module.
func shortName(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.FullName()
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return fmt.Sprintf("(%s.%s).%s", fn.Pkg().Name(), named.Obj().Name(), fn.Name())
		}
	}
	return fn.Pkg().Name() + "." + fn.Name()
}
