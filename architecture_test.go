package pmlmpi_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

const module = "github.com/pml-mpi/pmlmpi/"

// archTable parses ARCHITECTURE.md's package table into package →
// allowed module imports.
func archTable(t *testing.T) map[string]map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	table := make(map[string]map[string]bool)
	for _, line := range strings.Split(string(raw), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) != 5 {
			continue
		}
		pkg := strings.Trim(strings.TrimSpace(cells[1]), "`")
		if !strings.HasPrefix(pkg, "pkg/") && !strings.HasPrefix(pkg, "cmd/") {
			continue
		}
		if _, dup := table[pkg]; dup {
			t.Errorf("ARCHITECTURE.md lists %s twice", pkg)
		}
		allowed := make(map[string]bool)
		for _, imp := range strings.Split(cells[3], ",") {
			if imp = strings.Trim(strings.TrimSpace(imp), "`"); imp != "" && imp != "—" {
				allowed[imp] = true
			}
		}
		table[pkg] = allowed
	}
	if len(table) == 0 {
		t.Fatal("ARCHITECTURE.md has no package table")
	}
	return table
}

// moduleImports returns, per package directory under pkg/ and cmd/, the
// module packages its non-test files import. A directory holding only
// test files maps to an empty set.
func moduleImports(t *testing.T) map[string]map[string]bool {
	t.Helper()
	pkgs := make(map[string]map[string]bool)
	fset := token.NewFileSet()
	for _, root := range []string{"pkg", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") {
				return nil
			}
			dir := filepath.ToSlash(filepath.Dir(path))
			if pkgs[dir] == nil {
				pkgs[dir] = make(map[string]bool)
			}
			if strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, spec := range f.Imports {
				imp, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					return err
				}
				if strings.HasPrefix(imp, module) {
					pkgs[dir][strings.TrimPrefix(imp, module)] = true
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return pkgs
}

// TestArchitectureTable holds the import graph to ARCHITECTURE.md: every
// package has a row, every row names a package, and every module import
// of a non-test file is one its row allows.
func TestArchitectureTable(t *testing.T) {
	table := archTable(t)
	pkgs := moduleImports(t)
	for _, dir := range sortedKeys(pkgs) {
		t.Run(dir, func(t *testing.T) {
			allowed, ok := table[dir]
			if !ok {
				t.Fatalf("%s has no row in ARCHITECTURE.md", dir)
			}
			for _, imp := range sortedKeys(pkgs[dir]) {
				if !allowed[imp] {
					t.Errorf("%s imports %s, which its ARCHITECTURE.md row does not allow", dir, imp)
				}
			}
		})
	}
	for _, dir := range sortedKeys(table) {
		if _, ok := pkgs[dir]; !ok {
			t.Errorf("ARCHITECTURE.md lists %s, which has no Go files", dir)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
