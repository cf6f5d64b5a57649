package nodeterm_test

import (
	"testing"

	"civect/internal/lint/linttest"
	"civect/internal/lint/nodeterm"
)

// TestNodeterm pins the analyzer. The -nodeterm.pkgs flag is pointed
// at the first two fixtures: ndfix must be diagnosed, ndok holds the
// deterministic idioms (seeded rand, json, single-case select) and an
// allow, and ndskip proves packages outside the configured set are
// ignored entirely.
func TestNodeterm(t *testing.T) {
	f := nodeterm.Analyzer.Flags.Lookup("pkgs")
	old := f.Value.String()
	if err := f.Value.Set("ndfix,ndok"); err != nil {
		t.Fatal(err)
	}
	defer f.Value.Set(old)
	linttest.Run(t, "testdata", nodeterm.Analyzer, "ndfix", "ndok", "ndskip")
}

// TestDefaultPackages pins the shipped deterministic set: the
// simulator core and everything whose bytes must reproduce — including
// the sampled-simulation pipeline (internal/sample) and the checkpoint
// container (internal/ckpt). The service layer (civect/internal/serve)
// is deliberately absent — daemons live on the wall clock.
func TestDefaultPackages(t *testing.T) {
	want := "civect/internal/core,civect/internal/ci,civect/internal/sweep,civect/internal/sample,civect/internal/ckpt"
	if nodeterm.DefaultPackages != want {
		t.Fatalf("DefaultPackages = %q, want %q", nodeterm.DefaultPackages, want)
	}
}

// TestDefaultScopeExcludesServe proves the shipped scope boundary with
// fixtures at the real package paths: under the DEFAULT -nodeterm.pkgs
// value, civect/internal/serve uses time.Since and multi-way selects
// without a single diagnostic (its fixture carries no want comments),
// while the identical constructs in civect/internal/core are flagged.
func TestDefaultScopeExcludesServe(t *testing.T) {
	f := nodeterm.Analyzer.Flags.Lookup("pkgs")
	old := f.Value.String()
	if err := f.Value.Set(nodeterm.DefaultPackages); err != nil {
		t.Fatal(err)
	}
	defer f.Value.Set(old)
	linttest.Run(t, "testdata", nodeterm.Analyzer,
		"civect/internal/serve", "civect/internal/core", "civect/internal/sample")
}
