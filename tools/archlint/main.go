// Command archlint enforces the repository's layer DAG:
//
//	cmd, examples, simulation -> pkg/rmwtso -> internal/server ->
//	    internal/engine -> {simcache, experiments, sim, memmodel, core,
//	    litmus, cpp11, workload, ...}
//
// Concretely, per layer (non-test files only; tests may cross layers to
// build fixtures):
//
//   - Binaries and examples (cmd/..., examples/..., simulation, the module
//     root) import repro packages only from pkg/... — the facade is the
//     sole public entry point — plus internal/cliflags, the shared
//     flag-parsing helper that exists exactly for the binaries.
//   - The facade (pkg/...) may import internal layers; nothing imports cmd.
//   - The HTTP service (internal/server) sits between the facade and the
//     engine: it may import the engine and the lower layers, and only the
//     facade may import it.
//   - The execution engine (internal/engine/...) may import the lower
//     internal layers but never pkg/... or internal/server — the facade
//     points at the engine, not the reverse.
//   - internal/cliflags is a leaf: pure flag-layer glue that imports no
//     repro package at all.
//   - Every other internal package is below the engine: it must not import
//     internal/engine/..., internal/server, internal/cliflags or pkg/....
//     In particular internal/experiments describes the benchmark grid and
//     renders results; execution lives in the engine alone.
//   - tools/... follow the binary rule (repro imports from pkg/... and
//     internal/cliflags only).
//
// A violation fails the build with the offending import chain, rooted at
// a binary when one reaches the edge, so the report shows how the illegal
// dependency becomes load-bearing. Like doclint, archlint uses only the
// standard library.
//
// Usage:
//
//	go run ./tools/archlint
package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// module is the module path every repository-local import starts with.
const module = "repro"

// layer names the architectural layers of the DAG.
type layer int

const (
	layerBinary layer = iota // cmd/..., examples/..., simulation, module root
	layerTools               // tools/...
	layerFacade              // pkg/...
	layerServer              // internal/server/...
	layerEngine              // internal/engine/...
	layerCLI                 // internal/cliflags (leaf flag glue)
	layerLower               // every other internal/...
)

func (l layer) String() string {
	switch l {
	case layerBinary:
		return "binary"
	case layerTools:
		return "tools"
	case layerFacade:
		return "facade (pkg)"
	case layerServer:
		return "server"
	case layerEngine:
		return "engine"
	case layerCLI:
		return "cliflags"
	case layerLower:
		return "internal"
	}
	return "unknown"
}

// layerOf classifies a repository-local package path.
func layerOf(pkg string) layer {
	rel := strings.TrimPrefix(pkg, module)
	rel = strings.TrimPrefix(rel, "/")
	switch {
	case rel == "" || rel == "simulation" ||
		strings.HasPrefix(rel, "cmd/") || strings.HasPrefix(rel, "examples/") ||
		strings.HasPrefix(rel, "cmd") && rel == "cmd", strings.HasPrefix(rel, "examples") && rel == "examples":
		return layerBinary
	case rel == "tools" || strings.HasPrefix(rel, "tools/"):
		return layerTools
	case rel == "pkg" || strings.HasPrefix(rel, "pkg/"):
		return layerFacade
	case rel == "internal/server" || strings.HasPrefix(rel, "internal/server/"):
		return layerServer
	case rel == "internal/engine" || strings.HasPrefix(rel, "internal/engine/"):
		return layerEngine
	case rel == "internal/cliflags" || strings.HasPrefix(rel, "internal/cliflags/"):
		return layerCLI
	default:
		return layerLower
	}
}

// allowed reports whether a direct import from layer a to layer b is
// legal, and if not, why.
func allowed(from, to layer) (bool, string) {
	switch from {
	case layerBinary, layerTools:
		if to == layerFacade || to == layerCLI {
			return true, ""
		}
		return false, fmt.Sprintf("%s packages import repro code only through the facade (pkg/...) and internal/cliflags", from)
	case layerFacade:
		if to != layerBinary && to != layerTools {
			return true, ""
		}
		return false, "the facade must not import binaries or tools"
	case layerServer:
		if to == layerServer || to == layerEngine || to == layerLower {
			return true, ""
		}
		return false, "the server imports only the engine and lower internal layers, never pkg/..., cliflags or binaries"
	case layerEngine:
		if to == layerEngine || to == layerLower {
			return true, ""
		}
		return false, "the engine imports only lower internal layers, never internal/server, pkg/... or binaries"
	case layerCLI:
		return false, "internal/cliflags is a leaf: it must not import any repro package"
	case layerLower:
		if to == layerLower {
			return true, ""
		}
		return false, "internal packages sit below the engine: they must not import internal/engine/..., internal/server, internal/cliflags or pkg/..."
	}
	return false, "unknown layer"
}

// imports maps each repository package to its repository-local imports.
type graph map[string][]string

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	g, err := buildGraph(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "archlint:", err)
		os.Exit(2)
	}

	type violation struct {
		from, to, reason string
	}
	var violations []violation
	for from, tos := range g {
		for _, to := range tos {
			if ok, reason := allowed(layerOf(from), layerOf(to)); !ok {
				violations = append(violations, violation{from, to, reason})
			}
		}
	}
	if len(violations) == 0 {
		return
	}
	sort.Slice(violations, func(i, j int) bool {
		if violations[i].from != violations[j].from {
			return violations[i].from < violations[j].from
		}
		return violations[i].to < violations[j].to
	})
	fmt.Fprintf(os.Stderr, "archlint: %d forbidden imports:\n", len(violations))
	for _, v := range violations {
		fmt.Fprintf(os.Stderr, "  %s -> %s\n    rule: %s\n", v.from, v.to, v.reason)
		if chain := chainTo(g, v.from); len(chain) > 1 {
			fmt.Fprintf(os.Stderr, "    chain: %s -> %s\n", strings.Join(chain, " -> "), v.to)
		}
	}
	os.Exit(1)
}

// chainTo returns the shortest import chain from a binary entry point to
// the given package (inclusive), or just the package itself when no
// binary reaches it. It shows how an illegal edge becomes load-bearing.
func chainTo(g graph, target string) []string {
	var roots []string
	for pkg := range g {
		if layerOf(pkg) == layerBinary {
			roots = append(roots, pkg)
		}
	}
	sort.Strings(roots)
	type node struct {
		pkg  string
		path []string
	}
	queue := make([]node, 0, len(roots))
	seen := map[string]bool{}
	for _, r := range roots {
		queue = append(queue, node{r, []string{r}})
		seen[r] = true
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n.pkg == target {
			return n.path
		}
		for _, next := range g[n.pkg] {
			if !seen[next] {
				seen[next] = true
				queue = append(queue, node{next, append(append([]string{}, n.path...), next)})
			}
		}
	}
	return []string{target}
}

// buildGraph walks the repository and parses the repro imports of every
// non-test Go file, keyed by package path.
func buildGraph(root string) (graph, error) {
	g := graph{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if name == ".git" || name == "testdata" || (name != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := module
		if rel != "." {
			pkg = module + "/" + filepath.ToSlash(rel)
		}
		for _, imp := range f.Imports {
			v, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if v != module && !strings.HasPrefix(v, module+"/") {
				continue
			}
			if !contains(g[pkg], v) {
				g[pkg] = append(g[pkg], v)
			}
		}
		if _, ok := g[pkg]; !ok {
			g[pkg] = nil
		}
		return nil
	})
	return g, err
}

// contains reports whether the slice already holds the string.
func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
