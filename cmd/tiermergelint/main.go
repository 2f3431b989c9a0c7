// Command tiermergelint is the multichecker for the merge protocol's
// statically-enforced invariants. It runs the tiermerge analyzers
// (tiermergelint -list prints them) over the module and exits non-zero
// when any invariant is violated; scripts/check.sh and CI run it as a hard
// gate.
//
// Usage:
//
//	tiermergelint [./... | pkg dirs]   lint module packages (default ./...)
//	tiermergelint -dir <path>          lint one directory as an ad-hoc
//	                                   package (used for testdata fixtures)
//	tiermergelint -list                print the analyzer suite
//	tiermergelint -json ...            emit one JSON diagnostic per line
//	                                   (machine-readable; CI's problem
//	                                   matcher consumes the plain format)
//
// Packages are loaded from source with the standard library's source
// importer, so the tool works offline with no module cache. See
// docs/LINT.md for the annotation reference and suppression syntax.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"tiermerge/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("tiermergelint", flag.ContinueOnError)
	list := fs.Bool("list", false, "list the analyzers and exit")
	dir := fs.String("dir", "", "lint a single directory as an ad-hoc package")
	jsonOut := fs.Bool("json", false, "emit diagnostics as JSON, one object per line")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	var (
		pkgs   []*analysis.Package
		loader *analysis.Loader
		err    error
	)
	if *dir != "" {
		loader, pkgs, err = loadAdhocDir(*dir)
	} else {
		loader, pkgs, err = loadPatterns(fs.Args())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tiermergelint:", err)
		return 2
	}

	// Annotations come from every source-loaded package (targets plus
	// module-local deps) so cross-package contracts resolve.
	ann, annErrs := analysis.CollectAnnotations(loader.Packages())
	if len(annErrs) > 0 {
		for _, e := range annErrs {
			fmt.Fprintln(os.Stderr, "tiermergelint:", e)
		}
		return 2
	}
	diags, err := analysis.Run(analysis.All(), pkgs, ann, loader.Packages())
	if err != nil {
		fmt.Fprintln(os.Stderr, "tiermergelint:", err)
		return 2
	}
	for _, d := range diags {
		if *jsonOut {
			line, err := json.Marshal(struct {
				File     string `json:"file"`
				Line     int    `json:"line"`
				Col      int    `json:"col"`
				Analyzer string `json:"analyzer"`
				Message  string `json:"message"`
			}{d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message})
			if err != nil {
				fmt.Fprintln(os.Stderr, "tiermergelint:", err)
				return 2
			}
			fmt.Println(string(line))
			continue
		}
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "tiermergelint: %d invariant violation(s)\n", len(diags))
		return 1
	}
	return 0
}

// loadPatterns loads module packages: "./..." (default) or explicit
// package directories relative to the working directory.
func loadPatterns(patterns []string) (*analysis.Loader, []*analysis.Package, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, nil, err
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		return nil, nil, err
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var pkgs []*analysis.Package
	for _, pat := range patterns {
		if pat == "./..." || pat == "all" {
			all, err := loader.LoadModulePackages()
			if err != nil {
				return nil, nil, err
			}
			pkgs = append(pkgs, all...)
			continue
		}
		abs, err := filepath.Abs(strings.TrimSuffix(pat, "/"))
		if err != nil {
			return nil, nil, err
		}
		rel, err := filepath.Rel(root, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, nil, fmt.Errorf("package %s is outside module %s", pat, root)
		}
		ip := loader.ModulePath
		if rel != "." {
			ip += "/" + filepath.ToSlash(rel)
		}
		p, err := loader.Load(ip)
		if err != nil {
			return nil, nil, err
		}
		pkgs = append(pkgs, p)
	}
	return loader, pkgs, nil
}

// loadAdhocDir lints one directory as a standalone package. When the
// directory lives under a testdata/src tree (the analyzer fixtures), that
// tree becomes the import-path root so fixture stubs resolve.
func loadAdhocDir(dir string) (*analysis.Loader, []*analysis.Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, nil, err
	}
	fixRoot, ip := splitFixturePath(abs)
	if fixRoot == "" {
		fixRoot, ip = filepath.Dir(abs), filepath.Base(abs)
	}
	loader, err := analysis.NewLoader("")
	if err != nil {
		return nil, nil, err
	}
	loader.FixtureRoot = fixRoot
	p, err := loader.Load(ip)
	if err != nil {
		return nil, nil, err
	}
	return loader, []*analysis.Package{p}, nil
}

// splitFixturePath finds an ancestor ".../testdata/src" of abs and
// returns it plus the remaining import path.
func splitFixturePath(abs string) (root, importPath string) {
	marker := string(filepath.Separator) + filepath.Join("testdata", "src") + string(filepath.Separator)
	i := strings.LastIndex(abs, marker)
	if i < 0 {
		return "", ""
	}
	root = abs[:i+len(marker)-1]
	importPath = filepath.ToSlash(abs[i+len(marker):])
	return root, importPath
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
