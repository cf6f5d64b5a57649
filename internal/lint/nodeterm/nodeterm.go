// Package nodeterm implements the civet nodeterm analyzer: it bans
// sources of run-to-run nondeterminism inside the packages whose
// outputs must be byte-identical across runs, shards and machines
// (internal/core, internal/ci, internal/sweep, internal/benchfmt,
// internal/sample, internal/ckpt by default; configurable with
// -nodeterm.pkgs).
//
// Flagged constructs:
//
//   - time.Now / time.Since / time.Until — wall-clock reads
//   - the package-global math/rand and math/rand/v2 sources
//     (rand.Intn and friends); explicitly seeded *rand.Rand values
//     created with rand.New are fine
//   - select statements with more than one communication case, which
//     resolve by goroutine scheduling order
//   - gob-encoding a map-bearing value (gob serializes map entries in
//     iteration order, unlike encoding/json which sorts keys)
//   - fmt verbs that render addresses (%p), which differ per process
//
// Test files are exempt: differential suites intentionally use seeded
// randomness and timers. Range-over-map ordering hazards are the
// mapdet analyzer's job.
//
// # Scope
//
// The -nodeterm.pkgs flag draws the determinism boundary. The default
// set is the simulator's reproducible core — internal/core,
// internal/ci, internal/sweep, internal/benchfmt, plus the sampled-
// simulation pipeline internal/sample (whose BBV projection and
// k-means clustering must pick identical simulation points on every
// machine) and the checkpoint container internal/ckpt (whose bytes are
// CRC-sealed and diffed across runs) — whose outputs must be
// byte-identical across runs, shards and machines. The service
// layer (civect/internal/serve and the ciserve daemon over it) is
// deliberately NOT in the set: uptime clocks, drain deadlines and
// selects racing client connections against timers are what a daemon
// is made of. Determinism of simulation *results* is unaffected —
// serve only orchestrates sessions through civect/sim, and its
// concurrency test asserts byte-identical statistics for hundreds of
// concurrent jobs. The fixtures under
// testdata/src/civect/internal/{serve,core} pin this boundary: the
// same constructs pass unflagged in serve and are diagnosed in core.
package nodeterm

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"civect/internal/lint/directive"
)

// DefaultPackages is the comma-separated package-path-prefix list the
// -nodeterm.pkgs flag defaults to: the simulator's deterministic core.
const DefaultPackages = "civect/internal/core,civect/internal/ci,civect/internal/sweep,civect/internal/benchfmt,civect/internal/sample,civect/internal/ckpt"

// Analyzer is the nodeterm analysis.
var Analyzer = &analysis.Analyzer{
	Name:     "nodeterm",
	Doc:      "bans wall-clock reads, global rand, multi-way selects, gob map encoding and %p formatting in the deterministic simulator packages",
	Requires: []*analysis.Analyzer{inspect.Analyzer, directive.Loader},
	Run:      run,
}

func init() {
	Analyzer.Flags.String("pkgs", DefaultPackages,
		"comma-separated package path prefixes treated as deterministic")
}

func run(pass *analysis.Pass) (any, error) {
	if !deterministic(pass.Pkg.Path(), pass.Analyzer.Flags.Lookup("pkgs").Value.String()) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ix := pass.ResultOf[directive.Loader].(*directive.Index)

	nodeFilter := []ast.Node{(*ast.CallExpr)(nil), (*ast.SelectStmt)(nil)}
	ins.Preorder(nodeFilter, func(n ast.Node) {
		if inTestFile(pass, n) {
			return
		}
		switch n := n.(type) {
		case *ast.SelectStmt:
			checkSelect(pass, ix, n)
		case *ast.CallExpr:
			checkCall(pass, ix, n)
		}
	})
	return nil, nil
}

func deterministic(pkgPath, prefixes string) bool {
	for _, p := range strings.Split(prefixes, ",") {
		p = strings.TrimSpace(p)
		if p != "" && (pkgPath == p || strings.HasPrefix(pkgPath, p+"/")) {
			return true
		}
	}
	return false
}

func inTestFile(pass *analysis.Pass, n ast.Node) bool {
	return strings.HasSuffix(pass.Fset.Position(n.Pos()).Filename, "_test.go")
}

func checkSelect(pass *analysis.Pass, ix *directive.Index, sel *ast.SelectStmt) {
	comms := 0
	for _, clause := range sel.Body.List {
		if c, ok := clause.(*ast.CommClause); ok && c.Comm != nil {
			comms++
		}
	}
	if comms > 1 {
		ix.Report(pass, sel.Pos(), "select with %d communication cases resolves by goroutine scheduling order; deterministic packages must not race channels", comms)
	}
}

// globalRandFuncs are the math/rand (and v2) package-level functions
// backed by the shared, OS-seeded source. Constructors are excluded:
// rand.New(rand.NewSource(seed)) is the deterministic idiom.
var globalRandFuncs = map[string]bool{
	"ExpFloat64": true, "Float32": true, "Float64": true, "Int": true,
	"Int31": true, "Int31n": true, "Int63": true, "Int63n": true, "Intn": true,
	"Int32": true, "Int32N": true, "Int64": true, "Int64N": true,
	"IntN": true, "N": true, "NormFloat64": true, "Perm": true,
	"Read": true, "Seed": true, "Shuffle": true, "Uint32": true,
	"Uint32N": true, "Uint64": true, "Uint64N": true, "UintN": true,
}

func checkCall(pass *analysis.Pass, ix *directive.Index, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	name := sel.Sel.Name
	if pkg, ok := packageOf(pass, sel); ok {
		switch pkg {
		case "time":
			switch name {
			case "Now", "Since", "Until":
				ix.Report(pass, call.Pos(), "time.%s reads the wall clock; deterministic packages must take time as an input", name)
			}
		case "math/rand", "math/rand/v2":
			if globalRandFuncs[name] {
				ix.Report(pass, call.Pos(), "rand.%s uses the package-global source; use an explicitly seeded rand.New(...) instead", name)
			}
		}
		checkPointerVerb(pass, ix, pkg, name, call)
		return
	}
	checkGobEncode(pass, ix, sel, call)
}

// checkPointerVerb flags fmt format strings containing %p: rendered
// addresses differ between processes even for identical runs.
func checkPointerVerb(pass *analysis.Pass, ix *directive.Index, pkg, name string, call *ast.CallExpr) {
	if pkg != "fmt" || !strings.Contains(name, "rintf") { // Printf, Fprintf, Sprintf, Appendf
		return
	}
	for _, arg := range call.Args {
		lit, ok := arg.(*ast.BasicLit)
		if !ok {
			continue
		}
		if strings.Contains(lit.Value, "%p") {
			ix.Report(pass, lit.Pos(), "%%p formats a memory address, which differs per process; print a stable identifier instead")
		}
		break // only the format string matters; it is the first literal
	}
}

// checkGobEncode flags (*gob.Encoder).Encode of a value whose static
// type is or directly contains a map.
func checkGobEncode(pass *analysis.Pass, ix *directive.Index, sel *ast.SelectorExpr, call *ast.CallExpr) {
	if sel.Sel.Name != "Encode" || len(call.Args) != 1 {
		return
	}
	rt := pass.TypesInfo.TypeOf(sel.X)
	if rt == nil || !isGobEncoder(rt) {
		return
	}
	if at := pass.TypesInfo.TypeOf(call.Args[0]); at != nil && containsMap(at) {
		ix.Report(pass, call.Pos(), "gob encodes map entries in iteration order, so this Encode is not byte-reproducible; sort into a slice first")
	}
}

func isGobEncoder(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Encoder" && obj.Pkg() != nil && obj.Pkg().Path() == "encoding/gob"
}

// containsMap reports whether t is a map, a pointer to one, or a
// struct with a direct map-typed field (one level deep — the common
// marshaling shapes).
func containsMap(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Map:
		return true
	case *types.Pointer:
		return containsMap(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if _, ok := u.Field(i).Type().Underlying().(*types.Map); ok {
				return true
			}
		}
	}
	return false
}

func packageOf(pass *analysis.Pass, sel *ast.SelectorExpr) (string, bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := pass.TypesInfo.ObjectOf(id).(*types.PkgName)
	if !ok {
		return "", false
	}
	return pn.Imported().Path(), true
}
