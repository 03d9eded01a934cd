package sandbox

import (
	"errors"
	"strings"
	"testing"
)

func TestBlacklistRejectsAsm(t *testing.T) {
	s := NewScanner(nil, ScanRaw)
	src := `__global__ void k(float *a) { asm("nop"); }`
	vs := s.Scan(src)
	if len(vs) != 1 || vs[0].Word != "asm" {
		t.Fatalf("violations = %v", vs)
	}
	if err := s.Check(src); !errors.Is(err, ErrBlacklisted) {
		t.Errorf("Check = %v", err)
	}
}

func TestBlacklistCleanSourcePasses(t *testing.T) {
	s := NewScanner(nil, ScanRaw)
	src := `__global__ void vecAdd(float *a, float *b, float *c, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) c[i] = a[i] + b[i];
}`
	if err := s.Check(src); err != nil {
		t.Errorf("clean source rejected: %v", err)
	}
}

// The paper: "This method rejects code which contains the black listed
// functions even within comments" (raw mode), which preprocessed mode
// fixes — the exact ablation of experiment D5.
func TestRawModeFalsePositiveInComment(t *testing.T) {
	src := "// do not use asm here\n__global__ void k(float *a) { a[0] = 1.0f; }"
	raw := NewScanner(nil, ScanRaw)
	if err := raw.Check(src); !errors.Is(err, ErrBlacklisted) {
		t.Errorf("raw mode should flag commented asm: %v", err)
	}
	pp := NewScanner(nil, ScanPreprocessed)
	if err := pp.Check(src); err != nil {
		t.Errorf("preprocessed mode flagged a comment: %v", err)
	}
}

func TestBlacklistWordBoundaries(t *testing.T) {
	s := NewScanner(nil, ScanRaw)
	// "asmx" and "myasm" must not match "asm"; "systematic" not "system".
	if vs := s.Scan("int asmx; int myasm; float systematic;"); len(vs) != 0 {
		t.Errorf("substring matches: %v", vs)
	}
}

func TestBlacklistPositions(t *testing.T) {
	s := NewScanner(nil, ScanRaw)
	vs := s.Scan("int a;\n  system(0);")
	if len(vs) != 1 || vs[0].Line != 2 || vs[0].Col != 3 {
		t.Errorf("violation = %+v", vs)
	}
}

func TestCustomBlacklist(t *testing.T) {
	s := NewScanner([]string{"printf"}, ScanRaw)
	if len(s.Scan("printf(x); asm();")) != 1 {
		t.Error("custom list not honoured")
	}
}

func TestPolicyAllowDeny(t *testing.T) {
	p := DefaultPolicy()
	if err := p.Check("write"); err != nil {
		t.Errorf("write denied: %v", err)
	}
	if err := p.Check("execve"); !errors.Is(err, ErrSyscallDenied) {
		t.Errorf("execve allowed: %v", err)
	}
	p.Allow("execve")
	if err := p.Check("execve"); err != nil {
		t.Errorf("allowed call denied: %v", err)
	}
}

func TestMonitorKillDisposition(t *testing.T) {
	m := NewMonitor(NewPolicy([]string{"read"}, ActionKill))
	if err := m.Call("read"); err != nil {
		t.Fatal(err)
	}
	if err := m.Call("socket"); !errors.Is(err, ErrSyscallDenied) {
		t.Fatalf("socket = %v", err)
	}
	if !m.Killed() {
		t.Fatal("job not killed")
	}
	// After kill, even whitelisted calls fail.
	if err := m.Call("read"); err == nil {
		t.Fatal("call after kill succeeded")
	}
	calls, denied := m.Stats()
	if calls["read"] != 1 || calls["socket"] != 1 || denied["socket"] != 1 {
		t.Errorf("stats: calls=%v denied=%v", calls, denied)
	}
}

func TestMonitorErrnoDisposition(t *testing.T) {
	m := NewMonitor(NewPolicy([]string{"read"}, ActionErrno))
	if err := m.Call("socket"); !errors.Is(err, ErrSyscallDenied) {
		t.Fatal("socket allowed")
	}
	if m.Killed() {
		t.Fatal("errno disposition killed the job")
	}
	if err := m.Call("read"); err != nil {
		t.Fatalf("read after errno-denied call: %v", err)
	}
}

func TestLimitsClampOutput(t *testing.T) {
	l := Limits{MaxOutputBytes: 10}
	out, truncated := l.ClampOutput("0123456789ABCDEF")
	if !truncated || !strings.Contains(out, "truncated") {
		t.Errorf("out = %q truncated = %v", out, truncated)
	}
	out, truncated = l.ClampOutput("short")
	if truncated || out != "short" {
		t.Errorf("short output mangled: %q %v", out, truncated)
	}
}

func TestWorkspaceIsolation(t *testing.T) {
	wm := NewWorkspaceManager()
	ws := wm.Create("jobuser1")
	if err := ws.Write("jobuser1", "solution.cu", []byte("code")); err != nil {
		t.Fatal(err)
	}
	got, err := ws.Read("jobuser1", "solution.cu")
	if err != nil || string(got) != "code" {
		t.Fatalf("read = %q, %v", got, err)
	}
	// Another user may not touch it.
	if err := ws.Write("jobuser2", "x", nil); !errors.Is(err, ErrNotOwner) {
		t.Errorf("cross-user write = %v", err)
	}
	if _, err := ws.Read("jobuser2", "solution.cu"); !errors.Is(err, ErrNotOwner) {
		t.Errorf("cross-user read = %v", err)
	}
	// Paths may not escape.
	if err := ws.Write("jobuser1", "../etc/passwd", nil); !errors.Is(err, ErrNotOwner) {
		t.Errorf("path escape = %v", err)
	}
	if err := ws.Write("jobuser1", "/abs", nil); !errors.Is(err, ErrNotOwner) {
		t.Errorf("absolute path = %v", err)
	}
}

func TestWorkspaceLifecycle(t *testing.T) {
	wm := NewWorkspaceManager()
	a := wm.Create("u1")
	b := wm.Create("u1")
	if a.ID == b.ID {
		t.Error("workspace ids collide")
	}
	if wm.LiveCount() != 2 {
		t.Errorf("live = %d", wm.LiveCount())
	}
	wm.Destroy(a)
	if wm.LiveCount() != 1 {
		t.Errorf("live after destroy = %d", wm.LiveCount())
	}
	if err := a.Write("u1", "f", nil); err == nil {
		t.Error("write to destroyed workspace succeeded")
	}
}

func TestDefaultLimitsSane(t *testing.T) {
	l := DefaultLimits()
	if l.MaxSteps <= 0 || l.RunTimeout <= 0 || l.SubmitInterval <= 0 {
		t.Errorf("defaults: %+v", l)
	}
}
