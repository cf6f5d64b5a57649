// Package facadeonly implements the civet facadeonly analyzer: the
// enforcement half of the "one supported API" contract. Nothing below
// the CLI layer constructs simulations outside civect/sim, so
// commands (cmd/...) and examples (examples/...) may not import
// civect/internal/... packages at all — except the explicit,
// documented allowlist entries for the experiment/sweep subsystem.
//
// The allowlist here is the single source of truth: the analyzer
// surfaces violations in-editor and on `go vet -vettool=civet`, and
// sim/apiguard_test.go wraps the same Violation predicate so the rule
// is also a plain test (the CI entry point).
package facadeonly

import (
	"strconv"
	"strings"

	"golang.org/x/tools/go/analysis"

	"civect/internal/lint/directive"
)

// Facade is the one import through which commands and examples reach
// the simulator.
const Facade = "civect/sim"

// InternalPrefix guards every internal package.
const InternalPrefix = "civect/internal/"

// GuardedPrefixes are the package-path prefixes the façade rule
// applies to.
var GuardedPrefixes = []string{"civect/cmd/", "civect/examples/"}

// Allowlist maps a guarded package path to the internal packages it
// may still import. The two exceptions speak to the experiment/sweep
// subsystem (tables, shard files), which itself runs its simulations
// through sim.
var Allowlist = map[string][]string{
	// cickpt's checkpoint/sampled-run/verify subcommands go through sim
	// like every other command; the exception covers the profile
	// subcommand, which inspects the BBV profiler and clustering plan
	// directly (offline analysis with no simulation to construct) and
	// needs the raw program + image the façade deliberately hides.
	"civect/cmd/cickpt":  {"civect/internal/sample", "civect/internal/workload"},
	"civect/cmd/ciexp":   {"civect/internal/harness", "civect/internal/sweep"},
	"civect/cmd/cimerge": {"civect/internal/sweep"},
	// ciserve is the simulation-as-a-service daemon: its HTTP, queueing
	// and drain machinery lives in internal/serve, which itself runs
	// every simulation through sim.
	"civect/cmd/ciserve": {"civect/internal/serve"},
	// citrace records through sim like every other command; the
	// exception covers the journal reader/replay/diff side, which is
	// offline tooling with no simulation to construct.
	"civect/cmd/citrace": {"civect/internal/trace"},
	// civet is the lint suite's own driver, not a simulation command:
	// its imports are the analyzers, and it never constructs a
	// simulation at all.
	"civect/cmd/civet": {
		"civect/internal/lint/directive",
		"civect/internal/lint/facadeonly",
		"civect/internal/lint/hotalloc",
		"civect/internal/lint/mapdet",
		"civect/internal/lint/nodeterm",
	},
}

// Analyzer is the facadeonly analysis.
var Analyzer = &analysis.Analyzer{
	Name:     "facadeonly",
	Doc:      "commands and examples must import civect/sim, not civect/internal/... (allowlisted sweep/harness imports excepted)",
	Requires: []*analysis.Analyzer{directive.Loader},
	Run:      run,
}

// Guarded reports whether the façade rule applies to pkgPath.
func Guarded(pkgPath string) bool {
	for _, p := range GuardedPrefixes {
		if strings.HasPrefix(pkgPath, p) {
			return true
		}
	}
	return false
}

// Violation reports whether a package at pkgPath importing importPath
// breaks the façade rule.
func Violation(pkgPath, importPath string) bool {
	if !Guarded(pkgPath) || !strings.HasPrefix(importPath, InternalPrefix) {
		return false
	}
	for _, allowed := range Allowlist[pkgPath] {
		if importPath == allowed {
			return false
		}
	}
	return true
}

func run(pass *analysis.Pass) (any, error) {
	if !Guarded(pass.Pkg.Path()) {
		return nil, nil
	}
	ix := pass.ResultOf[directive.Loader].(*directive.Index)
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if Violation(pass.Pkg.Path(), path) {
				ix.Report(pass, imp.Pos(), "%s imports %s; commands and examples must use %s", pass.Pkg.Path(), path, Facade)
			}
		}
	}
	return nil, nil
}
