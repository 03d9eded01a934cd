package platform

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"webgpu/internal/labs"
	"webgpu/internal/trace"
	"webgpu/internal/webserver"
)

// traceFlow submits one graded job and follows its trace ID from the
// submission response to /api/admin/traces/{id}, asserting the span chain
// covers the web tier, the worker pipeline, and the grader.
func traceFlow(t *testing.T, p *Platform) {
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	alice := newClient(t, ts.URL)
	alice.register("Alice", "alice@example.edu", "student")
	src := labs.ByID("vector-add").Reference
	alice.mustDo("POST", "/api/labs/vector-add/save", map[string]string{"source": src}, nil)

	var sub webserver.SubmissionRec
	alice.mustDo("POST", "/api/labs/vector-add/submit", nil, &sub)
	if sub.TraceID == "" {
		t.Fatal("submission response carries no trace_id")
	}

	// The response header names the same trace.
	req, _ := http.NewRequest("POST", ts.URL+"/api/labs/vector-add/attempt?dataset=0", nil)
	req.Header.Set("Authorization", "Bearer "+alice.token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-WebGPU-Trace") == "" {
		t.Error("attempt response has no X-WebGPU-Trace header")
	}

	// Students may not read the admin surface.
	if code, _ := alice.do("GET", "/api/admin/traces/"+sub.TraceID, nil, nil); code != http.StatusForbidden {
		t.Errorf("student trace access = %d, want 403", code)
	}

	prof := newClient(t, ts.URL)
	prof.register("Prof", "prof@example.edu", "instructor")
	var data trace.Data
	prof.mustDo("GET", "/api/admin/traces/"+sub.TraceID, nil, &data)
	if data.ID != sub.TraceID {
		t.Fatalf("trace id = %q, want %q", data.ID, sub.TraceID)
	}
	if len(data.Spans) < 5 {
		t.Fatalf("trace has %d spans, want >= 5: %+v", len(data.Spans), data.Spans)
	}
	names := map[string]bool{}
	for _, sp := range data.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"dispatch", "queue_wait", "admission", "compile", "exec[dataset=0]", "grade"} {
		if !names[want] {
			t.Errorf("trace missing span %q (have %v)", want, keysOf(names))
		}
	}

	// The listing sees it too, newest first.
	var listing struct {
		Total  int          `json:"total"`
		Traces []trace.Data `json:"traces"`
	}
	prof.mustDo("GET", "/api/admin/traces", nil, &listing)
	if listing.Total < 2 || len(listing.Traces) < 2 {
		t.Fatalf("listing = total %d, %d traces", listing.Total, len(listing.Traces))
	}

	// The metrics dump reflects the work, in Prometheus text format.
	code, body := prof.do("GET", "/api/admin/metrics", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	for _, want := range []string{"webgpu_jobs_total", "webgpu_web_jobs_dispatched", "webgpu_stage_compile_ms"} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics dump missing %s", want)
		}
	}
}

func keysOf(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestTraceEndToEndV1(t *testing.T) {
	p := New(Options{Arch: V1, Workers: 2})
	defer p.Close()
	traceFlow(t, p)
}

func TestTraceEndToEndV2(t *testing.T) {
	p := New(Options{Arch: V2, Workers: 2})
	defer p.Close()
	traceFlow(t, p)
}

// TestAdminMetricsExportEveryStage: every stage that records a span (the
// worker's exec phase as a histogram only) exports its stage_<name>_ms
// histogram after one graded submission.
func TestAdminMetricsExportEveryStage(t *testing.T) {
	p := New(Options{Arch: V1, Workers: 1})
	defer p.Close()
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	alice := newClient(t, ts.URL)
	alice.register("Alice", "alice@example.edu", "student")
	src := labs.ByID("vector-add").Reference
	alice.mustDo("POST", "/api/labs/vector-add/save", map[string]string{"source": src}, nil)
	alice.mustDo("POST", "/api/labs/vector-add/submit", nil, nil)

	prof := newClient(t, ts.URL)
	prof.register("Prof", "prof@example.edu", "instructor")
	code, body := prof.do("GET", "/api/admin/metrics", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	for _, stage := range []string{"admission", "scan", "compile", "kernelcheck", "exec", "dispatch", "grade"} {
		if want := "webgpu_stage_" + stage + "_ms"; !strings.Contains(body, want) {
			t.Errorf("metrics dump missing %s", want)
		}
	}
}
