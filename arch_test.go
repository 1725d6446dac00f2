package pushmulticast

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"pushmulticast/internal/snapshot"
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
				t.Errorf("%v: imports unsafe; simulator code reaches its state through plain values and indexes — a cache way finds its tag and directory through the way number its Line carries, not pointer arithmetic (DESIGN.md §4b, \"A cache set gets its ways when it first holds lines\")", fset.Position(imp.Pos()))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// parseDirs parses the Go files of each directory, tests included when tests
// is set, and calls f on each.
func parseDirs(t *testing.T, tests bool, dirs []string, f func(fset *token.FileSet, path string, file *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	for _, dir := range dirs {
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("%s: no Go files (%v)", dir, err)
		}
		for _, path := range paths {
			if !tests && strings.HasSuffix(path, "_test.go") {
				continue
			}
			file, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			f(fset, filepath.ToSlash(path), file)
		}
	}
}

// internalDirs returns every directory under internal/.
func internalDirs(t *testing.T) []string {
	t.Helper()
	var dirs []string
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() {
			if m, _ := filepath.Glob(filepath.Join(path, "*.go")); len(m) > 0 {
				dirs = append(dirs, path)
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// outsideArrayMethods calls f on each node of file outside the methods of Array
// declared in internal/cache/array.go.
func outsideArrayMethods(path string, file *ast.File, f func(n ast.Node)) {
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && path == "internal/cache/array.go" && fd.Recv != nil {
			recv := fd.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if id, ok := recv.(*ast.Ident); ok && id.Name == "Array" {
				continue
			}
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			if n != nil {
				f(n)
			}
			return true
		})
	}
}

// isName reports whether e names name, bare or qualified by a package.
func isName(e ast.Expr, name string) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name == name
	case *ast.SelectorExpr:
		_, pkg := e.X.(*ast.Ident)
		return pkg && e.Sel.Name == name
	}
	return false
}

// TestArchOneWriterOfLineValidity states over the parsed source that no
// non-test code under internal/ assigns StateI to a State field except a
// method of Array in array.go: Install and Invalidate are the only writers of
// a way's validity, which keeps each valid way tagged and each free way not.
func TestArchOneWriterOfLineValidity(t *testing.T) {
	parseDirs(t, false, internalDirs(t), func(fset *token.FileSet, path string, file *ast.File) {
		outsideArrayMethods(path, file, func(n ast.Node) {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return
			}
			for i, lhs := range as.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "State" && isName(as.Rhs[i], "StateI") {
					t.Errorf("%v: a cache line is invalidated behind its set's tags: call Array.Invalidate (internal/cache/array.go, DESIGN.md §4)", fset.Position(as.Pos()))
				}
			}
		})
	})
}

// TestArchNoStructKeepsLine states over the parsed source that no struct
// type in internal/cache, internal/core or internal/check, tests aside, has a
// field whose type mentions a *Line: the checker's sweep looks only at the
// ways an array marked, which is complete only while no *Line outlives the
// tick it was handed out in.
func TestArchNoStructKeepsLine(t *testing.T) {
	dirs := []string{"internal/cache", "internal/core", "internal/check"}
	parseDirs(t, false, dirs, func(fset *token.FileSet, path string, file *ast.File) {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				ast.Inspect(field.Type, func(n ast.Node) bool {
					if star, ok := n.(*ast.StarExpr); ok && isName(star.X, "Line") {
						t.Errorf("%v: a struct keeps a *Line: the checker's sweep sees only the ways an array marked, which holds only while no *Line outlives its tick (DESIGN.md §4d)", fset.Position(field.Pos()))
					}
					return true
				})
			}
			return true
		})
	})
}

// TestArchOnlyArrayMarks states over the parsed source, tests included, that
// in internal/cache only Array's own methods call mark: a way is marked for
// the checker's sweep exactly where the array hands it out.
func TestArchOnlyArrayMarks(t *testing.T) {
	parseDirs(t, true, []string{"internal/cache"}, func(fset *token.FileSet, path string, file *ast.File) {
		outsideArrayMethods(path, file, func(n ast.Node) {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "mark" {
					t.Errorf("%v: ways are marked only inside the array's own Lookup, Victim, Install and Invalidate (internal/cache/array.go, DESIGN.md §4d)", fset.Position(call.Pos()))
				}
			}
		})
	})
}

// simulatedMachineDirs are the packages the simulated machine is built from,
// everything core.Build wires: they run on one goroutine a simulation.
var simulatedMachineDirs = []string{
	"internal/sim", "internal/noc", "internal/coherence", "internal/cache", "internal/cpu", "internal/memctrl",
	"internal/prefetch", "internal/fault", "internal/stats", "internal/trace", "internal/check", "internal/core",
}

// TestArchOneGoroutinePerSimulation states over the parsed source that no
// non-test file of the simulated machine's packages imports sync or
// sync/atomic or has a go statement: a simulation is one goroutine, and
// parallelism lives across runs (the harness pool, simd workers, shards).
func TestArchOneGoroutinePerSimulation(t *testing.T) {
	const why = "the simulated machine is single-threaded: parallelise across runs (harness pool, simd workers, shards), not inside one (DESIGN.md §4c)"
	parseDirs(t, false, simulatedMachineDirs, func(fset *token.FileSet, path string, file *ast.File) {
		for _, imp := range file.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "sync" || p == "sync/atomic" {
				t.Errorf("%v: imports %s; %s", fset.Position(imp.Pos()), p, why)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				t.Errorf("%v: a go statement; %s", fset.Position(g.Pos()), why)
			}
			return true
		})
	})
}

// TestArchNoCKeepsTables states over the parsed source that no declaration in
// a non-test file of internal/noc has a map type: the transport's streams are
// one table indexed by source and vnet, its losses one list.
func TestArchNoCKeepsTables(t *testing.T) {
	parseDirs(t, false, []string{"internal/noc"}, func(fset *token.FileSet, path string, file *ast.File) {
		ast.Inspect(file, func(n ast.Node) bool {
			if m, ok := n.(*ast.MapType); ok {
				t.Errorf("%v: a map type; the NoC keeps tables, not maps (DESIGN.md §4f)", fset.Position(m.Pos()))
			}
			return true
		})
	})
}

// TestArchNoWakeQueue states over the parsed source that no non-test file of
// internal/sim imports container/heap or container/list: scheduled wakes have
// one structure, the timing wheel.
func TestArchNoWakeQueue(t *testing.T) {
	parseDirs(t, false, []string{"internal/sim"}, func(fset *token.FileSet, path string, file *ast.File) {
		for _, imp := range file.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "container/heap" || p == "container/list" {
				t.Errorf("%v: imports %s; scheduled wakes live in the hashed timing wheel, each in its slot whatever its lap (DESIGN.md §4b)", fset.Position(imp.Pos()), p)
			}
		}
	})
}

// forbidNames reports, for every identifier in file that contains one of
// names, its position and why.
func forbidNames(t *testing.T, fset *token.FileSet, file *ast.File, names []string, why string) {
	ast.Inspect(file, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			for _, name := range names {
				if strings.Contains(id.Name, name) {
					t.Errorf("%v: %s; %s", fset.Position(id.Pos()), id.Name, why)
				}
			}
		}
		return true
	})
}

// TestArchPacketIsItsMessage states over the parsed source of internal/ and
// the root package, tests included, that no shared payload comes back: no
// refcounted payload type, payload codec or payload pool, no Payload field of
// type any, and no AddRef call. A router's replica is a whole packet that owns
// its message words.
func TestArchPacketIsItsMessage(t *testing.T) {
	const why = "a packet is its message; no shared payload may come back (DESIGN.md §4b, §4g)"
	parseDirs(t, true, append(internalDirs(t), "."), func(fset *token.FileSet, path string, file *ast.File) {
		forbidNames(t, fset, file, []string{"RefPayload", "PayloadCodec", "payloadPool"}, why)
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				iface, empty := n.Type.(*ast.InterfaceType)
				if isName(n.Type, "any") || empty && len(iface.Methods.List) == 0 {
					for _, name := range n.Names {
						if name.Name == "Payload" {
							t.Errorf("%v: a Payload field of type any; %s", fset.Position(n.Pos()), why)
						}
					}
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "AddRef" {
					t.Errorf("%v: an AddRef call; %s", fset.Position(n.Pos()), why)
				}
			}
			return true
		})
	})
}

// TestArchFaultPathKeepsEachFactOnce states over the parsed source of
// internal/check and internal/fault, tests aside, that the checker keeps one
// list of loss obligations (no pendingLoss, lossRef or hasLossy) and the
// injector one fault index by kind and slot (no per-kind list among
// Injector's fields).
func TestArchFaultPathKeepsEachFactOnce(t *testing.T) {
	perKind := []string{"stalls", "jits", "slows", "spikes", "drops", "mdrops", "mdups", "mcorrs"}
	parseDirs(t, false, []string{"internal/check", "internal/fault"}, func(fset *token.FileSet, path string, file *ast.File) {
		forbidNames(t, fset, file, []string{"pendingLoss", "lossRef", "hasLossy"},
			"the checker keeps one list of loss obligations and the injector reads Plan.Lossy (DESIGN.md §4d, §4e)")
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != "Injector" {
				return true
			}
			if st, ok := ts.Type.(*ast.StructType); ok {
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						if slices.Contains(perKind, name.Name) {
							t.Errorf("%v: Injector field %s; the injector keeps one fault index, by kind and slot (DESIGN.md §4e)", fset.Position(name.Pos()), name.Name)
						}
					}
				}
			}
			return true
		})
	})
}

// TestArchOneFailurePath states over the parsed source that a run's failure
// is recorded once, on the engine: no struct type in the machine's component
// packages, tests aside, has a field of type error (noc's rebuild, which
// carries one audit's result, aside), and no function is named
// Unrecoverable. A component that finds the run lost calls Fail on its
// sim.Handle.
func TestArchOneFailurePath(t *testing.T) {
	const why = "a component reports a failure through its sim.Handle (Handle.Fail); the engine keeps the first and the run loop reads Engine.Err (DESIGN.md §4b, \"One failure\")"
	dirs := []string{"internal/noc", "internal/cache", "internal/memctrl", "internal/cpu", "internal/prefetch", "internal/fault", "internal/check"}
	parseDirs(t, false, dirs, func(fset *token.FileSet, path string, file *ast.File) {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || path == "internal/noc/derive.go" && ts.Name.Name == "rebuild" {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					if isName(field.Type, "error") {
						t.Errorf("%v: %s keeps an error; %s", fset.Position(field.Pos()), ts.Name.Name, why)
					}
				}
			}
		}
	})
	parseDirs(t, false, append(internalDirs(t), "."), func(fset *token.FileSet, path string, file *ast.File) {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == "Unrecoverable" {
				t.Errorf("%v: a function named Unrecoverable; %s", fset.Position(fd.Pos()), why)
			}
		}
	})
}

// lastName returns the name an expression ends in: x for x and a.b.x, "" for
// anything else.
func lastName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

// TestArchOneStateDescription states that every component describes its
// state once, over a snapshot.Codec, and that the description carries
// primary state only. Over the parsed source: no function under internal/,
// tests included, is named SaveState or LoadState (a two-function codec); no
// internal/*/snapshot.go declares a generic derived (a derived field written
// and cross-checked), refers to a field named asleep or wakeAt, to a name
// containing lastTick or blockedAt, or to an l1's accesses (scheduling
// state: sleep flags, wake times, the cycle a lazily caught-up counter last
// caught up, a count of polled retries); and no non-test declaration under
// internal/ is a reserved uint64 (a padding word). Over the text of each
// snapshot.go, comments included: no "format vN" with N below
// snapshot.Version (nothing is written for an old format's sake).
func TestArchOneStateDescription(t *testing.T) {
	formatV := regexp.MustCompile(`format v([0-9]+)`)
	parseDirs(t, true, internalDirs(t), func(fset *token.FileSet, path string, file *ast.File) {
		test := strings.HasSuffix(path, "_test.go")
		state := filepath.Base(path) == "snapshot.go"
		reserved := func(names []*ast.Ident, typ ast.Expr, pos token.Pos) {
			for _, name := range names {
				if !test && name.Name == "reserved" && isName(typ, "uint64") {
					t.Errorf("%v: a reserved word; no section pads itself (DESIGN.md §4g)", fset.Position(pos))
				}
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Name.Name == "SaveState" || n.Name.Name == "LoadState" {
					t.Errorf("%v: %s; a two-function codec reappeared: describe the state once, over a snapshot.Codec (DESIGN.md §4g)", fset.Position(n.Pos()), n.Name.Name)
				}
				if state && n.Name.Name == "derived" && n.Type.TypeParams != nil {
					t.Errorf("%v: a generic derived; derived state is not written: it belongs in the component's rebuild (DESIGN.md §4b, §4g)", fset.Position(n.Pos()))
				}
			case *ast.Ident:
				if state && (strings.Contains(n.Name, "lastTick") || strings.Contains(n.Name, "blockedAt")) {
					t.Errorf("%v: %s in a state description; it carries no scheduling state: settle the counter to the barrier instead (DESIGN.md §4g)", fset.Position(n.Pos()), n.Name)
				}
			case *ast.SelectorExpr:
				if s := n.Sel.Name; state && (s == "asleep" || s == "wakeAt" || s == "accesses" && lastName(n.X) == "l1") {
					t.Errorf("%v: .%s in a state description; it carries no scheduling state: the engine writes the clock and decoding wakes every handle (DESIGN.md §4g)", fset.Position(n.Pos()), s)
				}
			case *ast.Field:
				reserved(n.Names, n.Type, n.Pos())
			case *ast.ValueSpec:
				reserved(n.Names, n.Type, n.Pos())
			}
			return true
		})
		if !state || test {
			return
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range formatV.FindAllSubmatch(src, -1) {
			if v, _ := strconv.Atoi(string(m[1])); v < int(snapshot.Version) {
				t.Errorf("%s: %q; a state description writes nothing for an old format's sake: this build reads v%d only (DESIGN.md §4g)", path, m[0], snapshot.Version)
			}
		}
	})
}
