package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"webgpu/internal/devsession"
	"webgpu/internal/kernelcheck"
	"webgpu/internal/labs"
	"webgpu/internal/webserver"
	"webgpu/internal/worker"
)

// submitOp submits o as c and, if that succeeds, reads c's history of
// the lab back. It returns both latencies and how many requests it made;
// any non-2xx reply, or a submission that does not earn full marks on
// every dataset, or a history that does not hold the submitted source,
// is an error.
func submitOp(c *client, o op) (submit, read time.Duration, reqs int, err error) {
	t0 := time.Now()
	r, err := c.do("POST", "/api/v1/labs/"+o.lab.ID+"/submit", map[string]string{"source": o.source})
	submit = time.Since(t0)
	if err != nil {
		return submit, 0, 1, err
	}
	if r.status != http.StatusOK {
		return submit, 0, 1, fmt.Errorf("submit: %v", r)
	}
	var sub webserver.SubmissionRec
	if err := json.Unmarshal(r.body, &sub); err != nil {
		return submit, 0, 1, fmt.Errorf("submit reply: %w", err)
	}
	if err := fullMarks(o.lab, &sub); err != nil {
		return submit, 0, 1, err
	}

	t1 := time.Now()
	r, err = c.do("GET", "/api/v1/labs/"+o.lab.ID+"/history", nil)
	read = time.Since(t1)
	if err != nil {
		return submit, read, 2, err
	}
	if r.status != http.StatusOK {
		return submit, read, 2, fmt.Errorf("history: %v", r)
	}
	var hist struct {
		Items []webserver.CodeRec `json:"items"`
	}
	if err := json.Unmarshal(r.body, &hist); err != nil {
		return submit, read, 2, fmt.Errorf("history reply: %w", err)
	}
	if n := len(hist.Items); n == 0 || hist.Items[n-1].Source != o.source {
		return submit, read, 2, fmt.Errorf("history: submitted source missing (%d items)", n)
	}
	return submit, read, 2, nil
}

func fullMarks(l *labs.Lab, sub *webserver.SubmissionRec) error {
	g := sub.Grade
	if g == nil {
		return fmt.Errorf("submit: no grade")
	}
	if len(g.DatasetPass) != l.NumDatasets {
		return fmt.Errorf("submit: graded %d of %d datasets", len(g.DatasetPass), l.NumDatasets)
	}
	for i, ok := range g.DatasetPass {
		if !ok {
			return fmt.Errorf("submit: dataset %d failed", i)
		}
	}
	if g.Total != g.Max || g.Max != l.MaxPoints() {
		return fmt.Errorf("submit: %d/%d points, want full marks %d", g.Total, g.Max, l.MaxPoints())
	}
	return nil
}

// compileOp presses Compile on o's source: the reply must report a
// compiled program with no error-severity diagnostics.
func compileOp(c *client, o op) error {
	r, err := c.do("POST", "/api/v1/labs/"+o.lab.ID+"/compile", map[string]string{"source": o.source})
	if err != nil {
		return err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("compile: %v", r)
	}
	var res worker.Result
	if err := json.Unmarshal(r.body, &res); err != nil {
		return fmt.Errorf("compile reply: %w", err)
	}
	if res.Error != "" || len(res.Outcomes) != 1 || !res.Outcomes[0].Compiled {
		return fmt.Errorf("compile: not compiled (%q)", res.Error)
	}
	if n := kernelcheck.ErrorCount(res.Diagnostics); n > 0 {
		return fmt.Errorf("compile: %d error diagnostics", n)
	}
	return nil
}

// httpResult is what the timed HTTP window measured.
type httpResult struct {
	opMs      map[int]float64 // op index -> latency of each successful op
	readMs    []float64
	attempted int
	failed    int
	errs      []string // the first few failures, for the report
	elapsed   time.Duration
	exhausted bool    // the closed loop ran out of seeded ops
	rssMB     float64 // peak RSS when the rssOps-th op completed (closed loops)

	perKind map[string][]float64 // latency by lab (submit) or cache path (compile)

	// draft-session
	lateMs            []float64
	reused, analyzed  int
	coalescedOrMissed int
	shed              int // 429 replies with the overloaded code
}

func newHTTPResult() *httpResult {
	return &httpResult{opMs: map[int]float64{}, perKind: map[string][]float64{}}
}

func (h *httpResult) fail(err error) {
	h.failed++
	if len(h.errs) < 5 {
		h.errs = append(h.errs, err.Error())
	}
}

// rssOps is the op count at which a closed loop samples peak RSS, so the
// figure covers set-up plus a fixed amount of work and does not grow with
// throughput (every submission stays in the in-memory database).
const rssOps = 1000

func (h *httpResult) noteRSS() {
	if len(h.opMs)+1 == rssOps {
		h.rssMB = peakRSSMB()
	}
}

func (h *httpResult) opLatencies() []float64 {
	out := make([]float64, 0, len(h.opMs))
	for _, v := range h.opMs {
		out = append(out, v)
	}
	return out
}

// runSubmitHTTP is the submit-grade closed loop: one client per worker
// slot, each taking the next seeded op (and its own fresh student) as
// soon as its previous op and history read complete.
func runSubmitHTTP(pr *prepared, ops []op, window time.Duration) *httpResult {
	h := newHTTPResult()
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(window)
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					mu.Lock()
					h.exhausted = true
					mu.Unlock()
					return
				}
				sub, read, reqs, err := submitOp(pr.students[i], ops[i])
				mu.Lock()
				h.attempted += reqs
				if err != nil {
					h.fail(fmt.Errorf("op %d (%s): %w", i, ops[i].lab.ID, err))
				} else {
					h.noteRSS()
					h.opMs[i] = ms(sub)
					h.readMs = append(h.readMs, ms(read))
					h.perKind[ops[i].lab.ID] = append(h.perKind[ops[i].lab.ID], ms(sub))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	h.elapsed = time.Since(start)
	return h
}

// compileThinkMax bounds compile-mix's think time between ops. A seeded
// pause drawn uniformly below the workers' 5 ms broker poll interval
// keeps the single closed-loop client from locking into one phase of the
// poll timers, which would pin every op's queue wait to the same value
// and make the median depend on where the run happened to start.
const compileThinkMax = 5 * time.Millisecond

// runCompileHTTP is the compile-mix closed loop: one student pressing
// Compile on the seeded sequence of fresh, stored and repeated sources,
// with a seeded think time between presses.
func runCompileHTTP(pr *prepared, in inputs, window time.Duration) *httpResult {
	h := newHTTPResult()
	ops := in.ops
	think := rngFor(in.seed, "think", 0)
	start := time.Now()
	deadline := start.Add(window)
	for i := 0; time.Now().Before(deadline); i++ {
		if i >= len(ops) {
			h.exhausted = true
			break
		}
		t0 := time.Now()
		err := compileOp(pr.student, ops[i])
		lat := ms(time.Since(t0))
		h.attempted++
		if err != nil {
			h.fail(fmt.Errorf("op %d (%s): %w", i, ops[i].lab.ID, err))
			continue
		}
		h.noteRSS()
		h.opMs[i] = lat
		h.perKind[ops[i].kind] = append(h.perKind[ops[i].kind], lat)
		time.Sleep(time.Duration(think.Int63n(int64(compileThinkMax))))
	}
	h.elapsed = time.Since(start)
	return h
}

// draftOutcome is one timed draft as the browser saw it.
type draftOutcome struct {
	seq  int64     // the server's draft number (0 if the push failed)
	due  time.Time // when the typing schedule sent it
	sent time.Time
}

// runDraftHTTP is the draft-session open loop: drafts are pushed on the
// seeded typing schedule whether or not earlier ones have been analyzed.
// Each draft's latency runs from its due time to the first diagnostics
// event covering it; afterwards every diagnostics event is checked
// against an independent full analysis of the source it reports on.
func runDraftHTTP(pr *prepared, plan draftPlan, window time.Duration) *httpResult {
	h := newHTTPResult()
	s := pr.session
	sources := map[int64]string{}
	var outs []draftOutcome
	start := time.Now()
	for k, at := range plan.due {
		if at >= window {
			break
		}
		due := start.Add(at)
		time.Sleep(time.Until(due))
		o := draftOutcome{due: due, sent: time.Now()}
		h.lateMs = append(h.lateMs, ms(o.sent.Sub(due)))
		seq, r, err := s.push(plan.drafts[k])
		h.attempted++
		switch {
		case err != nil:
			h.fail(fmt.Errorf("draft %d: %w", k, err))
		case r.status != http.StatusAccepted:
			if r.code == webserver.ErrCodeOverloaded {
				h.shed++
			}
			h.fail(fmt.Errorf("draft %d: %v", k, r))
		default:
			o.seq = seq
			sources[seq] = plan.drafts[k]
		}
		outs = append(outs, o)
	}
	// Let the last draft's analysis land before closing the window.
	last := int64(0)
	for _, o := range outs {
		if o.seq > last {
			last = o.seq
		}
	}
	if last > 0 {
		s.firstDiag(last, 5*time.Second)
	}
	h.elapsed = time.Since(start)
	h.rssMB = peakRSSMB() // before the checks below, which are the benchmark's own work
	for k, o := range outs {
		if o.seq == 0 {
			continue
		}
		ev, p, ok := s.firstDiag(o.seq, 0)
		if !ok {
			h.fail(fmt.Errorf("draft %d: no diagnostics event", k))
			continue
		}
		if p.Draft != o.seq {
			h.coalescedOrMissed++
		}
		h.opMs[k] = ms(ev.at.Sub(o.due))
	}
	checkDraftEvents(h, s.snapshot(), sources, plan.lab)
	return h
}

// checkDraftEvents verifies every compile and diagnostics event of the
// timed drafts: compiles must succeed and diagnostics must equal a full
// kernelcheck.AnalyzeSource of the draft's source.
func checkDraftEvents(h *httpResult, evs []sseEvent, sources map[int64]string, lab *labs.Lab) {
	var diags []devsession.DiagnosticsPayload
	for _, ev := range evs {
		switch ev.Type {
		case devsession.EventCompile:
			var p devsession.CompilePayload
			if err := json.Unmarshal(ev.Data, &p); err != nil {
				h.fail(fmt.Errorf("compile event: %w", err))
			} else if _, timed := sources[p.Draft]; timed && !p.OK {
				h.fail(fmt.Errorf("draft seq %d: compile failed: %s", p.Draft, p.Error))
			}
		case devsession.EventDiagnostics:
			var p devsession.DiagnosticsPayload
			if err := json.Unmarshal(ev.Data, &p); err != nil {
				h.fail(fmt.Errorf("diagnostics event: %w", err))
				continue
			}
			if _, timed := sources[p.Draft]; !timed {
				continue // the warm-up draft
			}
			h.reused += p.Reused
			h.analyzed += p.Analyzed
			diags = append(diags, p)
		}
	}
	// The reference analyses run after the window, one worker per core.
	errs := make([]error, len(diags))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(diags); i = int(next.Add(1) - 1) {
				p := diags[i]
				want, err := kernelcheck.AnalyzeSource(sources[p.Draft], lab.Dialect)
				switch {
				case err != nil:
					errs[i] = fmt.Errorf("draft seq %d: reference analysis: %w", p.Draft, err)
				case !sameDiagnostics(p.Diagnostics, want):
					errs[i] = fmt.Errorf("draft seq %d: diagnostics differ from a full analysis", p.Draft)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			h.fail(err)
		}
	}
}

// sameDiagnostics compares two findings lists as the wire carries them.
// A Diagnostic holds only strings, so encoding it cannot fail.
func sameDiagnostics(a, b []kernelcheck.Diagnostic) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	return string(ja) == string(jb)
}
