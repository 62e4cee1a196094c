package proto_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestOneEnvImplementation guards the "one site runtime" design: exactly
// one non-test type implements proto.Env — site.Env, shared by every
// backend — next to prototest.Env, the recording fake. A second runtime
// would have to define the interface's ResetTimer; this finds every type
// that does.
func TestOneEnvImplementation(t *testing.T) {
	var got []string
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Name.Name != "ResetTimer" {
				continue
			}
			recv := fn.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			rel, _ := filepath.Rel(root, filepath.Dir(path))
			got = append(got, filepath.ToSlash(rel)+"."+types.ExprString(recv))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	want := []string{"internal/proto/prototest.Env", "internal/site.Env"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("proto.Env implementations = %v, want exactly %v", got, want)
	}
}
