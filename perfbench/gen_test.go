package main

import (
	"context"
	"strings"
	"testing"
	"time"

	"webgpu/internal/grader"
	"webgpu/internal/kernelcheck"
	"webgpu/internal/labs"
	"webgpu/internal/minicuda"
	"webgpu/internal/sandbox"
)

func TestSplitLineRoundTrips(t *testing.T) {
	for _, l := range labs.All() {
		for _, src := range []string{l.Reference, l.Skeleton} {
			for _, ln := range strings.Split(src, "\n") {
				if got := joinSegs(splitLine(ln)); got != ln {
					t.Fatalf("%s: split/join changed %q to %q", l.ID, ln, got)
				}
			}
		}
	}
}

// gradeFullMarks compiles src for l, runs it on every dataset and checks
// it earns every rubric point with all questions answered.
func gradeFullMarks(t *testing.T, l *labs.Lab, src string) {
	t.Helper()
	if vs := sandbox.NewScanner(nil, sandbox.ScanRaw).Scan(src); len(vs) > 0 {
		t.Fatalf("%s: scan rejects variant: %v\n%s", l.ID, vs[0], src)
	}
	prog, err := minicuda.Compile(src, l.Dialect)
	if err != nil {
		t.Fatalf("%s: variant does not compile: %v\n%s", l.ID, err, src)
	}
	if n := kernelcheck.ErrorCount(kernelcheck.Analyze(prog)); n > 0 {
		t.Fatalf("%s: variant has %d error diagnostics\n%s", l.ID, n, src)
	}
	outs := labs.RunAllCompiled(context.Background(), l, prog, labs.NewDeviceSet(1), sandbox.DefaultLimits().MaxSteps)
	for _, o := range outs {
		if !o.Correct {
			t.Fatalf("%s: dataset %d fails: %s %s\n%s", l.ID, o.DatasetID, o.RuntimeError, o.CheckMessage, src)
		}
	}
	if g := grader.Score(l, src, outs, len(l.Questions)); g.Total != g.Max {
		t.Fatalf("%s: variant grades %d/%d\n%s", l.ID, g.Total, g.Max, src)
	}
}

func TestVariantsKeepLinesAndGradeFullMarks(t *testing.T) {
	for _, l := range hppLabs() {
		want := strings.Count(l.Reference, "\n")
		changed := 0
		for i := 0; i < 12; i++ {
			v := Variant(l.Reference, rngFor(7, "test", i))
			if got := strings.Count(v, "\n"); got != want {
				t.Fatalf("%s: variant has %d lines, reference %d", l.ID, got, want)
			}
			if v != l.Reference {
				changed++
			}
			gradeFullMarks(t, l, v)
		}
		if changed < 10 {
			t.Errorf("%s: only %d of 12 variants differ from the reference", l.ID, changed)
		}
	}
}

func TestSubmitOpsGradeFullMarks(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		ops := submitOps(seed, 24)
		seen := map[string]int{}
		for i, o := range ops {
			gradeFullMarks(t, o.lab, o.source)
			seen[o.lab.ID]++
			if (i+1)%8 == 0 {
				for _, l := range hppLabs() {
					if seen[l.ID] != (i+1)/8 {
						t.Fatalf("seed %d: after %d ops lab %s drawn %d times", seed, i+1, l.ID, seen[l.ID])
					}
				}
			}
		}
		for _, o := range warmups(seed, hppLabs()) {
			gradeFullMarks(t, o.lab, o.source)
		}
	}
}

func TestCompileOpsCompileCleanly(t *testing.T) {
	ops, stored := compileOps(3, 300)
	kinds := map[string]int{}
	for _, o := range ops {
		kinds[o.kind]++
		prog, err := minicuda.Compile(o.source, o.lab.Dialect)
		if err != nil {
			t.Fatalf("%s op does not compile: %v", o.kind, err)
		}
		if n := kernelcheck.ErrorCount(kernelcheck.Analyze(prog)); n > 0 {
			t.Fatalf("%s op has %d error diagnostics", o.kind, n)
		}
	}
	for _, k := range []string{kindFresh, kindStored, kindRepeat} {
		if kinds[k] < 60 {
			t.Errorf("only %d %s ops of 300", kinds[k], k)
		}
	}
	if len(stored) != kinds[kindStored] {
		t.Errorf("%d stored sources for %d stored ops", len(stored), kinds[kindStored])
	}
}

func TestDraftsEditOnlyTheirKernel(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		typing := newDraftTyping(labs.ByID(draftLab), draftKernel, rngFor(seed, "draft", 0))
		if typing.marker == "" || !strings.Contains(typing.Source(), "int "+typing.marker+" = ") {
			t.Fatalf("seed %d: no retypable local planted in %s", seed, draftKernel)
		}
		p := draftOps(seed, 4*time.Second)
		base, err := minicuda.Compile(p.warm, p.lab.Dialect)
		if err != nil {
			t.Fatalf("seed %d: warm-up draft does not compile: %v", seed, err)
		}
		hashes := map[string]string{}
		for _, f := range base.Funcs {
			hashes[f.Name] = f.StructuralHash()
		}
		lines := strings.Count(p.warm, "\n")
		editedKernel := 0 // drafts whose kernel differs from the previous draft's
		for k, src := range p.drafts {
			if strings.Count(src, "\n") != lines {
				t.Fatalf("seed %d draft %d: line count changed", seed, k)
			}
			prog, err := minicuda.Compile(src, p.lab.Dialect)
			if err != nil {
				t.Fatalf("seed %d draft %d does not compile: %v\n%s", seed, k, err, src)
			}
			for _, f := range prog.Funcs {
				if f.Name == p.kernel {
					if h := f.StructuralHash(); h != hashes[f.Name] {
						editedKernel++
						hashes[f.Name] = h
					}
					continue
				}
				if f.StructuralHash() != hashes[f.Name] {
					t.Fatalf("seed %d draft %d: edit reached kernel %s, want only %s", seed, k, f.Name, p.kernel)
				}
			}
		}
		if editedKernel < len(p.drafts)/2 {
			t.Errorf("seed %d: only %d of %d drafts change kernel %s", seed, editedKernel, len(p.drafts), p.kernel)
		}
	}
}

func TestDraftScheduleStaysWithinTheBucket(t *testing.T) {
	p := draftOps(5, 120*time.Second)
	tokens, last := float64(draftBurst), time.Duration(0)
	for k, at := range p.due {
		tokens += float64(at-last) / float64(draftRefill)
		if tokens > draftBurst {
			tokens = draftBurst
		}
		last = at
		if tokens < 1 {
			t.Fatalf("draft %d due at %v finds the bucket empty", k, at)
		}
		tokens--
	}
	if len(p.due) != 2000 || p.due[len(p.due)-1] > 120*time.Second+time.Second {
		t.Errorf("%d drafts, last due at %v; want 2000 by 120s", len(p.due), p.due[len(p.due)-1])
	}
}
