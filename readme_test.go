package wavescalar_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"strings"
	"testing"
)

// readmePrograms returns every ```go block in README.md that is a
// complete program (starts with "package main"), with the line it starts
// on.
func readmePrograms(t *testing.T) map[int]string {
	t.Helper()
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	progs := make(map[int]string)
	var block []string
	start, in := 0, false
	for i, line := range strings.Split(string(data), "\n") {
		switch {
		case !in && strings.TrimSpace(line) == "```go":
			in, start, block = true, i+2, nil
		case in && strings.TrimSpace(line) == "```":
			in = false
			src := strings.Join(block, "\n")
			if strings.HasPrefix(strings.TrimSpace(src), "package main") {
				progs[start] = src
			}
		case in:
			block = append(block, line)
		}
	}
	return progs
}

// TestReadmeProgramsTypeCheck type-checks the README's runnable programs
// against the current API, so documentation that calls a removed or
// renamed function fails here instead of in a reader's editor.
func TestReadmeProgramsTypeCheck(t *testing.T) {
	progs := readmePrograms(t)
	if len(progs) == 0 {
		t.Fatal("README.md has no ```go block starting with package main")
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	for line, src := range progs {
		f, err := parser.ParseFile(fset, "README.md", src, 0)
		if err != nil {
			t.Errorf("README.md block at line %d: %v", line, err)
			continue
		}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check("main", fset, []*ast.File{f}, nil); err != nil {
			t.Errorf("README.md block at line %d does not type-check: %v", line, err)
		}
	}
}
