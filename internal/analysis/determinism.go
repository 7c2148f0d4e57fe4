package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// numericPackages are the packages whose results must be bit-stable for a
// fixed seed: the probability kernels, the lattice posterior, the pool
// selection strategies, and the simulation harnesses. Matching is by
// import-path suffix so the rules also apply under test loaders.
var numericPackages = []string{
	"internal/prob",
	"internal/kernel",
	"internal/lattice",
	"internal/halving",
	"internal/dilution",
	"internal/stats",
	"internal/sparse",
	"internal/posterior",
	"internal/baseline",
	"internal/calculator",
	"internal/rng",
}

func isNumericPackage(path string) bool {
	for _, p := range numericPackages {
		if pathHasSuffix(path, p) {
			return true
		}
	}
	return false
}

// Determinism enforces schedule- and clock-independent results:
//
//   - math/rand (and math/rand/v2) is banned module-wide except in
//     internal/rng, whose splittable xoshiro256** streams are the one
//     sanctioned randomness source. A shared global generator makes
//     replicate output depend on goroutine scheduling.
//   - time.Now is banned in numeric packages: seeding or branching on the
//     wall clock makes runs unreproducible.
//   - accumulating floats across a map range in a numeric package is
//     banned: Go randomizes map iteration order, and floating-point
//     addition is not associative, so the sum changes run to run.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid math/rand, wall-clock randomness, and map-iteration-order-" +
		"dependent accumulation so simulations are bit-stable for a fixed seed",
	Run: runDeterminism,
}

func runDeterminism(pass *Pass) {
	rngSanctioned := pathHasSuffix(pass.PkgPath, "internal/rng")
	numeric := isNumericPackage(pass.PkgPath)

	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if (path == "math/rand" || path == "math/rand/v2") && !rngSanctioned {
				pass.Reportf(imp.Pos(),
					"import %s is forbidden: thread a *rng.Source (internal/rng) so results are schedule-independent", path)
			}
		}
	}

	if !numeric {
		return
	}

	pass.Inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if pass.CalleeName(n) == "time.Now" {
				pass.Reportf(n.Pos(),
					"time.Now in a numeric package makes results clock-dependent; accept an explicit seed or timestamp parameter")
			}
		case *ast.RangeStmt:
			if t := pass.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					checkMapAccumulation(pass, n)
				}
			}
		}
		return true
	})
}

// checkMapAccumulation flags float accumulation into variables declared
// outside a map-range loop: the iteration order is randomized, and float
// addition is order-sensitive, so the accumulated value is nondeterministic.
func checkMapAccumulation(pass *Pass, rs *ast.RangeStmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			if id := floatIdentDeclaredOutside(pass, as.Lhs[0], rs); id != nil {
				pass.Reportf(as.Pos(),
					"float accumulation into %s across map iteration is order-dependent (map order is randomized); iterate sorted keys or use a partition-ordered reduction", id.Name)
			}
		case token.ASSIGN:
			// x = x + w style accumulation.
			if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				return true
			}
			id := floatIdentDeclaredOutside(pass, as.Lhs[0], rs)
			if id == nil {
				return true
			}
			if be, ok := as.Rhs[0].(*ast.BinaryExpr); ok && mentionsIdent(be, id.Name) {
				pass.Reportf(as.Pos(),
					"float accumulation into %s across map iteration is order-dependent (map order is randomized); iterate sorted keys or use a partition-ordered reduction", id.Name)
			}
		}
		return true
	})
}

// floatIdentDeclaredOutside returns expr as an identifier when it names a
// float variable declared outside the given statement's span.
func floatIdentDeclaredOutside(pass *Pass, expr ast.Expr, outside ast.Node) *ast.Ident {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pass.Info.Uses[id]
	if obj == nil {
		obj = pass.Info.Defs[id]
	}
	if obj == nil {
		return nil
	}
	if !isFloat(obj.Type()) {
		return nil
	}
	if obj.Pos() >= outside.Pos() && obj.Pos() < outside.End() {
		return nil
	}
	return id
}

func mentionsIdent(expr ast.Expr, name string) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
