// Package directive parses and validates the //civet: comment
// directives that the civet lint suite (internal/lint, cmd/civet)
// understands. It is the single source of truth for the directive
// grammar, shared by every analyzer:
//
//	//civet:hotpath
//	//civet:coldpath
//	//civet:allow <analyzer> <reason...>
//
// hotpath marks a function declaration (in its doc comment) as the
// root of a per-cycle hot path: the hotalloc analyzer treats the
// function and everything it statically calls within the package as
// allocation-free territory. coldpath, also a function-doc directive,
// prunes that traversal: a function marked cold (an error path, a
// pool-growth slow path) is excluded from the hot closure even when a
// hot function calls it.
//
// allow suppresses one analyzer's diagnostics on the directive's own
// line and on the line directly below it, so it can be written either
// trailing the offending statement or on its own line above it. The
// analyzer name must be one of the civet analyzers and the reason is
// mandatory — a suppression without a recorded justification is
// itself a lint error (reported by Analyzer in this package).
package directive

import (
	"go/ast"
	"go/token"
	"reflect"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// Prefix introduces every civet directive comment.
const Prefix = "//civet:"

// AnalyzerNames lists the analyzers an allow directive may name.
// cmd/civet composes exactly this set (plus the directive validator
// itself, which cannot be suppressed).
var AnalyzerNames = []string{"facadeonly", "hotalloc", "mapdet", "nodeterm"}

// Allow is one parsed //civet:allow directive.
type Allow struct {
	Pos      token.Pos // position of the comment
	Analyzer string    // analyzer being suppressed
	Reason   string    // mandatory justification
	Line     int       // line the comment sits on
}

// Malformed is a directive that does not follow the grammar, with a
// human-readable explanation.
type Malformed struct {
	Pos token.Pos
	Msg string
}

// Index holds every civet directive found in one package, ready for
// the point queries analyzers make while walking the syntax.
type Index struct {
	fset *token.FileSet

	// allows maps filename -> line -> suppressions effective on that
	// line. An allow covers its own line and the next one.
	allows map[string]map[int][]Allow

	hot  map[*ast.FuncDecl]bool
	cold map[*ast.FuncDecl]bool

	malformed []Malformed
}

// Loader is a non-reporting analyzer whose result is the package's
// *Index. Every civet analyzer Requires it so the directives are
// parsed once per package, not once per analyzer.
var Loader = &analysis.Analyzer{
	Name:       "civetdirectiveloader",
	Doc:        "parses //civet: directives for the other civet analyzers (reports nothing itself)",
	Run:        func(pass *analysis.Pass) (any, error) { return buildIndex(pass), nil },
	ResultType: reflect.TypeOf((*Index)(nil)),
}

// Analyzer validates directive grammar: unknown verbs, allow lines
// naming unknown analyzers or missing their mandatory reason, and
// hotpath/coldpath markers that are not attached to a function
// declaration's doc comment.
var Analyzer = &analysis.Analyzer{
	Name:     "civetdir",
	Doc:      "checks that //civet: directives are well-formed (known verb, known analyzer, mandatory allow reason, hotpath on a function)",
	Requires: []*analysis.Analyzer{Loader},
	Run: func(pass *analysis.Pass) (any, error) {
		ix := pass.ResultOf[Loader].(*Index)
		for _, m := range ix.malformed {
			pass.Reportf(m.Pos, "%s", m.Msg)
		}
		return nil, nil
	},
}

// Hot reports whether fn carries a //civet:hotpath doc directive.
func (ix *Index) Hot(fn *ast.FuncDecl) bool { return ix.hot[fn] }

// Cold reports whether fn carries a //civet:coldpath doc directive.
func (ix *Index) Cold(fn *ast.FuncDecl) bool { return ix.cold[fn] }

// Allowed reports whether a diagnostic from the named analyzer at pos
// is suppressed by an in-scope //civet:allow directive.
func (ix *Index) Allowed(pos token.Pos, analyzer string) bool {
	p := ix.fset.Position(pos)
	for _, a := range ix.allows[p.Filename][p.Line] {
		if a.Analyzer == analyzer {
			return true
		}
	}
	return false
}

// Report emits a diagnostic through pass unless an allow directive
// for pass's analyzer covers pos. Analyzers call this instead of
// pass.Reportf so suppression semantics stay uniform.
func (ix *Index) Report(pass *analysis.Pass, pos token.Pos, format string, args ...any) {
	if ix.Allowed(pos, pass.Analyzer.Name) {
		return
	}
	pass.Reportf(pos, format, args...)
}

func buildIndex(pass *analysis.Pass) *Index {
	ix := &Index{
		fset:   pass.Fset,
		allows: make(map[string]map[int][]Allow),
		hot:    make(map[*ast.FuncDecl]bool),
		cold:   make(map[*ast.FuncDecl]bool),
	}
	known := make(map[string]bool, len(AnalyzerNames))
	for _, n := range AnalyzerNames {
		known[n] = true
	}

	for _, f := range pass.Files {
		// Doc-comment directives attach to function declarations;
		// remember which comments those are so stray hotpath markers
		// elsewhere can be reported as misplaced.
		funcDoc := make(map[*ast.Comment]*ast.FuncDecl)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Doc != nil {
				for _, c := range fn.Doc.List {
					funcDoc[c] = fn
				}
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, Prefix) {
					continue
				}
				body := strings.TrimPrefix(c.Text, Prefix)
				// A " //" starts trailing commentary (fixture want
				// comments, editorial asides): not part of the
				// directive.
				body, _, _ = strings.Cut(body, " //")
				verb, rest, _ := strings.Cut(body, " ")
				switch verb {
				case "hotpath", "coldpath":
					fn, attached := funcDoc[c]
					switch {
					case !attached:
						ix.addMalformed(c.Pos(), "//civet:"+verb+" must appear in a function declaration's doc comment")
					case strings.TrimSpace(rest) != "":
						ix.addMalformed(c.Pos(), "//civet:"+verb+" takes no arguments")
					case verb == "hotpath":
						ix.hot[fn] = true
					default:
						ix.cold[fn] = true
					}
				case "allow":
					name, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
					switch {
					case name == "":
						ix.addMalformed(c.Pos(), "//civet:allow needs an analyzer name and a reason: //civet:allow <analyzer> <reason>")
					case !known[name]:
						ix.addMalformed(c.Pos(), "//civet:allow names unknown analyzer "+name+" (known: "+strings.Join(AnalyzerNames, ", ")+")")
					case strings.TrimSpace(reason) == "":
						ix.addMalformed(c.Pos(), "//civet:allow "+name+" is missing its mandatory reason")
					default:
						pos := ix.fset.Position(c.Pos())
						byLine := ix.allows[pos.Filename]
						if byLine == nil {
							byLine = make(map[int][]Allow)
							ix.allows[pos.Filename] = byLine
						}
						a := Allow{Pos: c.Pos(), Analyzer: name, Reason: strings.TrimSpace(reason), Line: pos.Line}
						byLine[pos.Line] = append(byLine[pos.Line], a)
						byLine[pos.Line+1] = append(byLine[pos.Line+1], a)
					}
				default:
					ix.addMalformed(c.Pos(), "unknown civet directive //civet:"+verb+" (known: hotpath, coldpath, allow)")
				}
			}
		}
	}
	return ix
}

func (ix *Index) addMalformed(pos token.Pos, msg string) {
	ix.malformed = append(ix.malformed, Malformed{Pos: pos, Msg: msg})
}
