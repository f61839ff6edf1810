// Command cocg-docscheck is the documentation link checker wired into `make
// docs-check` (and through it `make lint`): it walks the repo's markdown —
// README.md, EXPERIMENTS.md, DESIGN.md, ROADMAP.md and everything under docs/
// by default — and fails when any relative link points at a file that does
// not exist, or when a fragment (in-page "#section" or cross-file
// "FILE.md#section") names a heading anchor the target does not define, or
// a code span cites a Test…/Benchmark…/Fuzz… name that prefixes no func in a
// _test.go file under -root. External links (http/https/mailto) are out of
// scope; the tool exists to catch the docs drifting from the tree, not to
// audit the internet.
//
// Usage:
//
//	cocg-docscheck [-root dir] [paths...]
//
// Each path is a markdown file or a directory to walk for *.md files,
// resolved under -root (default "."). Links starting with "/" resolve
// against -root, everything else against the containing file's directory.
// Anchors are computed GitHub-style: the heading lowercased, everything but
// letters, digits, spaces, underscores and dashes stripped, spaces turned
// into dashes, and duplicate headings suffixed -1, -2, ... in order. Exits 0
// when everything resolves, 2 with a file:line listing otherwise.
package main

import (
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// linkPattern matches inline markdown links and images: [text](target) and
// ![alt](target). Reference-style definitions ("[id]: target") are rare in
// this repo and intentionally out of scope.
var linkPattern = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)[^)]*\)`)

// testNamePattern matches a Go test, benchmark or fuzz function name;
// funcPattern a top-level func declaration.
var (
	testNamePattern = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	funcPattern     = regexp.MustCompile(`(?m)^func (\w+)\(`)
)

func main() {
	root := flag.String("root", ".", "repository root that rooted (/...) links resolve against")
	flag.Parse()

	targets := flag.Args()
	if len(targets) == 0 {
		targets = []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", "ROADMAP.md", "docs"}
	}

	var files []string
	for _, tgt := range targets {
		path := filepath.Join(*root, tgt)
		info, err := os.Stat(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cocg-docscheck: %v\n", err)
			os.Exit(2)
		}
		if !info.IsDir() {
			files = append(files, path)
			continue
		}
		err = filepath.WalkDir(path, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(p, ".md") {
				files = append(files, p)
			}
			return nil
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "cocg-docscheck: %v\n", err)
			os.Exit(2)
		}
	}

	funcs, err := testFuncs(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cocg-docscheck: %v\n", err)
		os.Exit(2)
	}
	broken := 0
	checked := 0
	for _, file := range files {
		b, c, err := checkFile(file, *root, funcs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cocg-docscheck: %v\n", err)
			os.Exit(2)
		}
		broken += b
		checked += c
	}
	if broken > 0 {
		fmt.Fprintf(os.Stderr, "cocg-docscheck: %d broken link(s) or test name(s) across %d file(s)\n", broken, len(files))
		os.Exit(2)
	}
	fmt.Printf("cocg-docscheck: %d links and test names across %d markdown files all resolve\n", checked, len(files))
}

// testFuncs lists every top-level func declared in a _test.go file under
// root (hidden directories skipped), each after a newline, so a cited name
// is a prefix of some func exactly when "\n"+name occurs in the list.
func testFuncs(root string) (string, error) {
	var list strings.Builder
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && p != root && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(p, "_test.go"):
			return nil
		}
		data, err := os.ReadFile(p)
		for _, m := range funcPattern.FindAllSubmatch(data, -1) {
			list.WriteString("\n" + string(m[1]))
		}
		return err
	})
	return list.String(), err
}

// anchorCache memoizes per-file heading anchors: the same target (this
// file's own headings, or a hub doc linked from everywhere) is scanned once.
var anchorCache = map[string]map[string]bool{}

// anchorsFor computes the GitHub-style anchor set of a markdown file's
// headings, including the -1/-2 suffixes GitHub appends to duplicates.
func anchorsFor(file string) (map[string]bool, error) {
	if a, ok := anchorCache[file]; ok {
		return a, nil
	}
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	anchors := map[string]bool{}
	counts := map[string]int{}
	inFence := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence || !strings.HasPrefix(line, "#") {
			continue
		}
		text := strings.TrimLeft(line, "#")
		if !strings.HasPrefix(text, " ") {
			continue // "#!/bin/sh"-style text, not a heading
		}
		slug := slugify(strings.TrimSpace(text))
		if n := counts[slug]; n > 0 {
			anchors[fmt.Sprintf("%s-%d", slug, n)] = true
		} else {
			anchors[slug] = true
		}
		counts[slug]++
	}
	anchorCache[file] = anchors
	return anchors, nil
}

// slugify lowercases a heading and keeps letters, digits, underscores and
// dashes, mapping spaces to dashes — the GitHub anchor algorithm for the
// ASCII headings this repo uses.
func slugify(s string) string {
	s = strings.ToLower(s)
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_', r == '-':
			b.WriteRune(r)
		case r == ' ':
			b.WriteByte('-')
		}
	}
	return b.String()
}

// checkFile scans one markdown file and reports its broken relative links
// and the test names its code spans cite that no func in funcs starts with.
func checkFile(file, root, funcs string) (broken, checked int, err error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return 0, 0, err
	}
	inFence := false
	for i, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue // code blocks show literal syntax, not navigable links
		}
		spans := strings.Split(line, "`") // the odd pieces are code spans
		for k := 1; k < len(spans)-1; k += 2 {
			for _, name := range testNamePattern.FindAllString(spans[k], -1) {
				checked++
				if !strings.Contains(funcs, "\n"+name) {
					fmt.Fprintf(os.Stderr, "%s:%d: `%s` names no test func\n", file, i+1, name)
					broken++
				}
			}
		}
		for _, m := range linkPattern.FindAllStringSubmatch(line, -1) {
			target := strings.TrimSpace(m[1])
			target = strings.TrimSuffix(target, ">")
			target = strings.TrimPrefix(target, "<")
			if target == "" || strings.Contains(target, "://") ||
				strings.HasPrefix(target, "mailto:") {
				continue
			}
			frag := ""
			if idx := strings.IndexByte(target, '#'); idx >= 0 {
				target, frag = target[:idx], target[idx+1:]
			}
			var resolved string
			switch {
			case target == "": // pure in-page anchor
				resolved = file
			case strings.HasPrefix(target, "/"):
				resolved = filepath.Join(root, target)
			default:
				resolved = filepath.Join(filepath.Dir(file), target)
			}
			checked++
			if target != "" {
				if _, statErr := os.Stat(resolved); statErr != nil {
					fmt.Fprintf(os.Stderr, "%s:%d: broken link %q (resolved %s)\n", file, i+1, m[1], resolved)
					broken++
					continue
				}
			}
			if frag != "" && strings.HasSuffix(resolved, ".md") {
				anchors, anchErr := anchorsFor(resolved)
				if anchErr != nil {
					return 0, 0, anchErr
				}
				if !anchors[strings.ToLower(frag)] {
					fmt.Fprintf(os.Stderr, "%s:%d: broken anchor %q (no heading in %s slugs to #%s)\n", file, i+1, m[1], resolved, frag)
					broken++
				}
			}
		}
	}
	return broken, checked, nil
}
