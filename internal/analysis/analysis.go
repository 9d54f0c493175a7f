// Package analysis is a self-contained reimplementation of the core of
// golang.org/x/tools/go/analysis, sized to what estima-vet needs. The repo
// deliberately has zero third-party dependencies, so the suite of custom
// determinism/canonical-spec analyzers (see the sibling packages) is built
// on this API instead of x/tools. The shapes mirror the upstream API —
// Analyzer, Pass, Diagnostic, SuggestedFix — so the analyzers would port to
// the real framework with only an import change.
//
// On top of the x/tools shapes, this package defines the repository's
// annotation convention, a family of "//estima:" comment directives the
// analyzers and the driver read:
//
//	//estima:timing [reason]
//	    Package-level opt-out for timing-measurement packages: the package's
//	    whole job is to read wall clocks (perfcol, timex, stm,
//	    estima-bench), so the determinism analyzer skips it. The directive
//	    may appear in any file-level comment of the package.
//
//	//estima:allow <analyzer> [reason]
//	    Line-level suppression: diagnostics of the named analyzer on the
//	    same line, or on the line immediately below the comment, are
//	    dropped. Every use should carry a reason.
//
//	//estima:canonical <param> [<param>...]
//	    On a function declaration's doc comment: the named string
//	    parameters are canonical-identity sinks (store keys, cache
//	    fingerprints, sim seeds). The canonicalkey analyzer checks every
//	    call site's arguments against the spec-canonical origin rules.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one analysis: its name, documentation, and run
// function. Analyzers in this repo are factless and independent — there is
// no Requires graph and no cross-package fact store.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, flags and
	// //estima:allow directives. It must be a valid Go identifier.
	Name string
	// Doc is the one-paragraph help text; the first line is the summary.
	Doc string
	// Run applies the analyzer to one package and reports diagnostics
	// through pass.Report. The returned error aborts the whole run (it is
	// for broken invariants, not findings).
	Run func(pass *Pass) error
}

func (a *Analyzer) String() string { return a.Name }

// Pass is one (analyzer, package) unit of work: the syntax trees and type
// information of a single type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one diagnostic. The driver installs it; analyzers
	// normally call the Reportf/ReportRangef helpers instead.
	Report func(Diagnostic)

	dirs *Directives // lazily built //estima: directive index
}

// Diagnostic is one finding at a position. End may be NoPos for
// point diagnostics.
type Diagnostic struct {
	Pos      token.Pos
	End      token.Pos
	Category string // analyzer name; filled by the driver if empty
	Message  string
	// SuggestedFixes optionally carry machine-applicable edits. They are
	// exercised by the analysistest golden harness; the vet driver prints
	// diagnostics only.
	SuggestedFixes []SuggestedFix
}

// SuggestedFix is one alternative fix: a description plus the text edits
// that implement it. Edits must not overlap.
type SuggestedFix struct {
	Message   string
	TextEdits []TextEdit
}

// TextEdit replaces [Pos, End) with NewText. End == NoPos means Pos.
type TextEdit struct {
	Pos     token.Pos
	End     token.Pos
	NewText []byte
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ReportRangef reports a formatted diagnostic over node's extent.
func (p *Pass) ReportRangef(node ast.Node, format string, args ...any) {
	p.Report(Diagnostic{Pos: node.Pos(), End: node.End(), Message: fmt.Sprintf(format, args...)})
}

// Directives returns the pass's parsed //estima: directive index, built on
// first use.
func (p *Pass) Directives() *Directives {
	if p.dirs == nil {
		p.dirs = ParseDirectives(p.Fset, p.Files)
	}
	return p.dirs
}

// InFile reports whether pos lies in a file whose base name satisfies
// match. Used for _test.go exemptions.
func (p *Pass) Filename(pos token.Pos) string {
	return p.Fset.Position(pos).Filename
}
