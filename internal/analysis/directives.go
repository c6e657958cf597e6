package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directive is one in-source annotation the analyzers understand:
//
//	//sidco:nondet <reason>    suppress a determinism finding
//	//sidco:hotpath            mark a function for hotpath checking
//	//sidco:alloc <reason>     suppress a hotpath finding
//	//sidco:locked <mu> [why]  function runs with <mu> already held
//	//sidco:nolock <reason>    suppress a lockcheck finding
//	//sidco:errclass <reason>  suppress an errclass finding
//	//sidco:oracle <reason>    keep an export only tests use
//	// guarded by <mu>         struct field protected by sibling mutex
//
// The sidco: forms follow the Go directive-comment convention (no
// space after //, so gofmt leaves them alone). A suppression directive
// covers the line it sits on and the line below it, so it can trail a
// statement or sit on its own line above one; nondet, hotpath, locked
// and errclass also apply function-wide from a function's doc comment,
// and oracle from anywhere in a declaration's doc comment.
type Directive struct {
	Name string // "nondet", "hotpath", "alloc", "locked", "nolock", "errclass", "oracle"
	Arg  string // remainder of the comment, trimmed
	Pos  token.Pos
}

const directivePrefix = "//sidco:"

// parseDirective extracts a directive from one comment, if present.
func parseDirective(c *ast.Comment) (Directive, bool) {
	text := c.Text
	if !strings.HasPrefix(text, directivePrefix) {
		return Directive{}, false
	}
	rest := text[len(directivePrefix):]
	name := rest
	arg := ""
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		name, arg = rest[:i], strings.TrimSpace(rest[i+1:])
	}
	switch name {
	case "nondet", "hotpath", "alloc", "locked", "nolock", "errclass", "oracle":
		return Directive{Name: name, Arg: arg, Pos: c.Pos()}, true
	}
	return Directive{}, false
}

// directivesByLine indexes every sidco: directive of the pass's files
// by filename and line, built lazily.
func (p *Pass) directivesByLine() map[string]map[int][]Directive {
	if p.directives != nil {
		return p.directives
	}
	p.directives = make(map[string]map[int][]Directive)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(c)
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				byLine := p.directives[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]Directive)
					p.directives[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], d)
			}
		}
	}
	return p.directives
}

// DirectiveAt returns the directive of the given name covering pos: on
// pos's own line or on the line directly above it.
func (p *Pass) DirectiveAt(pos token.Pos, name string) (Directive, bool) {
	position := p.Fset.Position(pos)
	byLine := p.directivesByLine()[position.Filename]
	for _, line := range [2]int{position.Line, position.Line - 1} {
		for _, d := range byLine[line] {
			if d.Name == name {
				return d, true
			}
		}
	}
	return Directive{}, false
}

// FuncDirective returns the directive of the given name in a function
// declaration's doc comment.
func FuncDirective(fn *ast.FuncDecl, name string) (Directive, bool) {
	return commentDirective(fn.Doc, name)
}

// commentDirective returns the directive of the given name in a comment
// group, which may be nil.
func commentDirective(cg *ast.CommentGroup, name string) (Directive, bool) {
	if cg == nil {
		return Directive{}, false
	}
	for _, c := range cg.List {
		if d, ok := parseDirective(c); ok && d.Name == name {
			return d, true
		}
	}
	return Directive{}, false
}

// suppressed reports whether a finding at pos is silenced by a
// line-level directive or a function-level one on fn (which may be
// nil). Directives with an empty reason do not suppress: the analyzers
// report them as malformed instead, so every exemption carries its why.
func (p *Pass) suppressed(pos token.Pos, fn *ast.FuncDecl, name string) bool {
	if d, ok := p.DirectiveAt(pos, name); ok && d.Arg != "" {
		return true
	}
	if fn != nil {
		if d, ok := FuncDirective(fn, name); ok && d.Arg != "" {
			return true
		}
	}
	return false
}

// checkDirectiveReasons reports every directive of the given name that
// is missing its reason argument — an exemption without a why defeats
// the point of annotating.
func checkDirectiveReasons(p *Pass, name string) {
	for _, byLine := range p.directivesByLine() {
		for _, ds := range byLine {
			for _, d := range ds {
				if d.Name == name && d.Arg == "" {
					p.Reportf(d.Pos, "sidco:%s directive is missing its reason", name)
				}
			}
		}
	}
}

// guardedFields maps struct fields annotated `// guarded by <mu>` to
// the name of the protecting sibling mutex field. The annotation may
// trail the field or sit in its doc comment.
func guardedFields(p *Pass) map[*ast.Field]string {
	out := make(map[*ast.Field]string)
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if mu := guardComment(field.Comment); mu != "" {
					out[field] = mu
				} else if mu := guardComment(field.Doc); mu != "" {
					out[field] = mu
				}
			}
			return true
		})
	}
	return out
}

// guardComment extracts the mutex name from a `// guarded by <mu>`
// annotation anywhere in the comment group.
func guardComment(cg *ast.CommentGroup) string {
	if cg == nil {
		return ""
	}
	for _, c := range cg.List {
		text := strings.TrimPrefix(c.Text, "//")
		text = strings.TrimSpace(text)
		rest, ok := strings.CutPrefix(text, "guarded by ")
		if !ok {
			continue
		}
		mu := rest
		if i := strings.IndexAny(mu, " .,;:("); i >= 0 {
			mu = mu[:i]
		}
		if mu != "" {
			return mu
		}
	}
	return ""
}
