package pushmulticast

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestArchNoUnsafe states over the parsed source that no non-test Go file
// under internal/ imports unsafe: the simulator's state is plain Go values,
// so the snapshot codec, the checker and the race detector see all of it.
// Tests may use unsafe to pin layouts (TestLineLayout, TestPacketLayout).
func TestArchNoUnsafe(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "unsafe" {
				t.Errorf("%v: imports unsafe; simulator code reaches its state through plain values and indexes — a cache way finds its tag and directory through the way number its Line carries, not pointer arithmetic (DESIGN.md §4b, \"A cache set gets its page when it first holds a line\")", fset.Position(imp.Pos()))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
