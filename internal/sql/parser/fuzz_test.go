package parser_test

import (
	"go/ast"
	goparser "go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"

	"samzasql/internal/bench"
	"samzasql/internal/sql/catalog"
	"samzasql/internal/sql/parser"
	"samzasql/internal/sql/plan"
	"samzasql/internal/sql/validate"
	"samzasql/internal/workload"
)

// FuzzParse feeds arbitrary text to the SQL front end the way the shell
// and the engine take a user's statement: parse, and when that succeeds
// validate against the benchmark catalog and build the logical plan. Each
// step may return an error but must never panic. The corpus is seeded with
// every SQL string literal in parser_test.go (valid listings and the
// malformed cases) and the benchmark statements.
func FuzzParse(f *testing.F) {
	for _, q := range parserTestQueries(f) {
		f.Add(q)
	}
	for _, q := range bench.Queries {
		f.Add(q)
	}
	cat := catalog.New()
	if err := workload.DefineCatalog(cat); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := parser.Parse(src)
		if err != nil {
			return
		}
		res, err := validate.New(cat).Validate(stmt)
		if err != nil {
			return
		}
		_, _ = plan.Build(res)
	})
}

// parserTestQueries returns the string literals of parser_test.go that
// start with a SQL statement keyword.
func parserTestQueries(f *testing.F) []string {
	file, err := goparser.ParseFile(token.NewFileSet(), "parser_test.go", nil, 0)
	if err != nil {
		f.Fatal(err)
	}
	var out []string
	ast.Inspect(file, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		s, err := strconv.Unquote(lit.Value)
		if err != nil {
			f.Fatal(err)
		}
		head := strings.ToUpper(strings.TrimSpace(s))
		for _, kw := range []string{"SELECT", "CREATE", "INSERT"} {
			if strings.HasPrefix(head, kw) {
				out = append(out, s)
				break
			}
		}
		return true
	})
	if len(out) == 0 {
		f.Fatal("no SQL literals found in parser_test.go")
	}
	return out
}
