package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree lays out a fake repo under a temp dir and returns its root.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, src := range files {
		p := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func runLint(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	if stderr.Len() > 0 {
		t.Logf("stderr: %s", stderr.String())
	}
	return code, stdout.String()
}

func TestClockCallFlagged(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/overload/bad.go": `package overload

import "time"

func f() time.Time { return time.Now() }

func g(t0 time.Time) time.Duration { return time.Since(t0) }
`,
	})
	code, out := runLint(t, root)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, out)
	}
	if n := strings.Count(out, "deterministic-clock package"); n != 2 {
		t.Fatalf("want 2 clock findings, got %d:\n%s", n, out)
	}
}

func TestClockValueReferenceAllowed(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/devsession/ok.go": `package devsession

import "time"

type cfg struct{ Clock func() time.Time }

func defaults(c cfg) cfg {
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}
`,
	})
	if code, out := runLint(t, root); code != 0 {
		t.Fatalf("value reference flagged: exit = %d\n%s", code, out)
	}
}

func TestClockRuleScopedToListedPackages(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/other/fine.go": `package other

import "time"

func f() time.Time { return time.Now() }
`,
	})
	if code, out := runLint(t, root); code != 0 {
		t.Fatalf("unlisted package flagged: exit = %d\n%s", code, out)
	}
}

func TestTestFilesExempt(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/overload/clock_test.go": `package overload

import "time"

var t0 = time.Now()
`,
	})
	if code, out := runLint(t, root); code != 0 {
		t.Fatalf("test file flagged: exit = %d\n%s", code, out)
	}
}

func TestStageObserveFlaggedOutsideTrace(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/worker/bad.go": `package worker

import "time"

type reg interface {
	Observe(string, float64)
	ObserveDuration(string, time.Duration)
}

func f(r reg, d time.Duration, name string) {
	r.ObserveDuration("stage_compile_ms", d)
	r.Observe("stage_"+name+"_ms", 1)
	r.ObserveDuration("job_exec_ms", d)
	r.ObserveDuration(name, d)
}
`,
		"internal/trace/ok.go": `package trace

import "time"

type reg interface{ ObserveDuration(string, time.Duration) }

func end(r reg, name string, d time.Duration) { r.ObserveDuration("stage_"+name+"_ms", d) }
`,
	})
	code, out := runLint(t, root)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, out)
	}
	if n := strings.Count(out, "trace.Start"); n != 2 || !strings.Contains(out, "bad.go") || strings.Contains(out, "ok.go") {
		t.Fatalf("want 2 stage findings in bad.go only, got %d:\n%s", n, out)
	}
}

func TestHotpathSprintfAndRegexpFlagged(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/kernelcheck/hot.go": `//kernelcheck:hotpath
package kernelcheck

import (
	"fmt"
	"regexp"
)

var re = regexp.MustCompile("x+")

func f(n int) string { return fmt.Sprintf("%d", n) }
`,
	})
	code, out := runLint(t, root)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "regexp imported") || !strings.Contains(out, "fmt.Sprintf call") {
		t.Fatalf("missing hotpath findings:\n%s", out)
	}
}

func TestHotpathRuleNeedsMarker(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/kernelcheck/cold.go": `package kernelcheck

import "fmt"

func f(n int) string { return fmt.Sprintf("%d", n) }
`,
	})
	if code, out := runLint(t, root); code != 0 {
		t.Fatalf("unmarked file flagged: exit = %d\n%s", code, out)
	}
}

func TestBadPathExitsTwo(t *testing.T) {
	if code, _ := runLint(t, filepath.Join(t.TempDir(), "missing")); code != 2 {
		t.Fatal("unreadable root should exit 2")
	}
}

// TestRepoIsClean runs the linter over the actual repository, which is
// the check CI performs: the tree itself must stay lint-clean.
func TestRepoIsClean(t *testing.T) {
	code, out := runLint(t, "../..")
	if code != 0 {
		t.Fatalf("repository has repolint findings:\n%s", out)
	}
}
