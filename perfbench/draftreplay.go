package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"webgpu/internal/devsession"
	"webgpu/internal/kernelcheck"
	"webgpu/internal/labs"
	"webgpu/internal/minicuda"
	"webgpu/internal/overload"
	"webgpu/internal/progcache"
)

// sessionEvent is one devsession event stamped on arrival.
type sessionEvent struct {
	devsession.Event
	at time.Time
}

// draftReplay is what replaying a typing schedule into a world's own
// devsession manager measured.
type draftReplay struct {
	opDur     map[int]time.Duration // draft index -> due time to covering diagnostics
	compileMs []float64             // push to the first compile event covering the draft
	diagMs    []float64             // push to the first diagnostics event covering the draft
	drafts    int
	ownDiag   int // drafts whose own diagnostics event arrived (the rest coalesced)
	failed    []error
}

// drafts replays the schedule's drafts due before window, in real time,
// through the world's overload controller and a devsession session on the
// world's program cache (the deployment's web tier in process, without
// HTTP). With recording on it adds, per draft, the op span from due time
// to its covering diagnostics event, and beside every analyzed draft
// probes of the compile, store and incremental-analysis work inside it.
func (w *world) drafts(plan draftPlan, window time.Duration) (*draftReplay, error) {
	mgr := devsession.NewManager(devsession.Config{Cache: w.progs, Pressure: w.ctrl.Pressure})
	defer mgr.CloseAll()
	lab := plan.lab
	sess, err := mgr.Open("drafter", lab.ID, lab.Dialect)
	if err != nil {
		return nil, err
	}
	_, ch, cancel, err := sess.Subscribe(0)
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var evs []sessionEvent
	pumped := make(chan struct{})
	go func() {
		defer close(pumped)
		for ev := range ch {
			mu.Lock()
			evs = append(evs, sessionEvent{ev, time.Now()})
			mu.Unlock()
		}
	}()
	defer func() { cancel(); <-pumped }()

	// covering returns the first event of type typ for a draft >= seq,
	// waiting up to timeout for it.
	covering := func(typ string, seq int64, timeout time.Duration) (sessionEvent, int64, bool) {
		deadline := time.Now().Add(timeout)
		for {
			mu.Lock()
			for _, ev := range evs {
				if ev.Type != typ {
					continue
				}
				if d := draftOf(ev.Event); d >= seq {
					mu.Unlock()
					return ev, d, true
				}
			}
			mu.Unlock()
			if time.Now().After(deadline) {
				return sessionEvent{}, 0, false
			}
			time.Sleep(200 * time.Microsecond)
		}
	}

	seq, _, err := sess.PushDraft(plan.warm)
	if err != nil {
		return nil, fmt.Errorf("replay warm-up draft: %w", err)
	}
	if _, _, ok := covering(devsession.EventDiagnostics, seq, 10*time.Second); !ok {
		return nil, fmt.Errorf("replay warm-up draft: no diagnostics")
	}

	type pushed struct {
		seq                 int64
		due, start, pushEnd time.Time
		root                int
	}
	var ps []pushed
	sources := map[int64]string{}
	index := map[int64]int{}
	// The session reaches the store only inside the world's cache, so the
	// store's counters over the timed drafts are its castore traffic.
	storeBefore := w.store.Stats()
	begin := time.Now()
	for k, at := range plan.due {
		if at >= window {
			break
		}
		due := begin.Add(at)
		time.Sleep(time.Until(due))
		p := pushed{due: due, start: time.Now()}
		root := w.rec.add(span{Op: k, Parent: -1, Name: "op.draft", StartNS: w.rec.ns(due)})
		p.root = root
		s := w.rec.begin(k, root, "overload.admit")
		tk, aerr := w.ctrl.Admit(context.Background(), overload.ClassDraft, "user:drafter", "course:"+string(labs.CourseHPP))
		w.rec.end(s)
		if aerr != nil {
			w.shed++
			return nil, aerr
		}
		s = w.rec.begin(k, root, "devsession.push")
		p.seq, _, err = sess.PushDraft(plan.drafts[k])
		w.rec.end(s)
		w.release(k, root, tk)
		p.pushEnd = time.Now()
		if err != nil {
			return nil, fmt.Errorf("replay draft %d: %w", k, err)
		}
		sources[p.seq] = plan.drafts[k]
		index[p.seq] = k
		ps = append(ps, p)
	}

	r := &draftReplay{opDur: map[int]time.Duration{}, drafts: len(ps)}
	if len(ps) > 0 {
		covering(devsession.EventDiagnostics, ps[len(ps)-1].seq, 5*time.Second)
	}
	w.countStore(storeBefore)
	waits := map[int]int{}
	for k, p := range ps {
		diag, d, ok := covering(devsession.EventDiagnostics, p.seq, 0)
		if !ok {
			r.failed = append(r.failed, fmt.Errorf("replay draft %d: no diagnostics event", k))
			continue
		}
		if d == p.seq {
			r.ownDiag++
		}
		if comp, _, ok := covering(devsession.EventCompile, p.seq, 0); ok {
			r.compileMs = append(r.compileMs, ms(comp.at.Sub(p.start)))
		}
		r.diagMs = append(r.diagMs, ms(diag.at.Sub(p.start)))
		r.opDur[k] = diag.at.Sub(p.due)
		w.rec.set(p.root, func(sp *span) { sp.EndNS = w.rec.ns(diag.at) })
		waits[k] = w.rec.add(span{Op: k, Parent: p.root, Name: "devsession.wait",
			StartNS: w.rec.ns(p.pushEnd), EndNS: w.rec.ns(diag.at)})
	}

	// Beside every analyzed draft: probes of the work inside its wait, in
	// the order the session did it, so the probe engine reuses exactly
	// what the session's engine reused.
	mu.Lock()
	all := append([]sessionEvent(nil), evs...)
	mu.Unlock()
	cacheOf := map[int64]string{}
	probeInc := kernelcheck.NewIncremental()
	seen := map[string]bool{plan.warm: true}
	if prog, err := minicuda.Compile(plan.warm, lab.Dialect); err == nil {
		probeInc.Analyze(prog)
	}
	for _, ev := range all {
		d := draftOf(ev.Event)
		src, timed := sources[d]
		switch {
		case ev.Type == devsession.EventCompile:
			if p, ok := ev.Data.(devsession.CompilePayload); ok {
				cacheOf[d] = p.Cache
			}
		case ev.Type == devsession.EventDiagnostics && timed:
			k := index[d]
			parent, ok := waits[k]
			if !ok || !w.rec.on {
				continue
			}
			prog, err := minicuda.Compile(src, lab.Dialect)
			if err != nil {
				r.failed = append(r.failed, fmt.Errorf("replay draft %d: %w", k, err))
				continue
			}
			key := progcache.Key(src, lab.Dialect)
			if cacheOf[d] == progcache.Miss.String() {
				var data []byte
				w.rec.probe(k, parent, "minicuda.compile", func() { _, _ = minicuda.Compile(src, lab.Dialect) })
				w.rec.probe(k, parent, "minicuda.encode", func() { data, _ = minicuda.EncodeProgram(prog) })
				w.rec.probe(k, parent, "castore.put", func() { _ = w.probes.Put(key, progcache.ProgBlob, data) })
			}
			// A source the shared cache already analyzed is served from it;
			// every other draft runs through the session's engine.
			if !seen[src] {
				seen[src] = true
				var res kernelcheck.Result
				w.rec.probe(k, parent, "kernelcheck.incremental", func() { res = probeInc.Analyze(prog) })
				w.rec.probe(k, parent, "castore.put", func() {
					data, _ := json.Marshal(res.Diagnostics)
					_ = w.probes.Put(key, progcache.DiagBlob, data)
				})
			}
		}
	}
	return r, nil
}

// draftOf is the draft number an event reports on.
func draftOf(ev devsession.Event) int64 {
	switch p := ev.Data.(type) {
	case devsession.CompilePayload:
		return p.Draft
	case devsession.DiagnosticsPayload:
		return p.Draft
	case devsession.StatusPayload:
		return p.Draft
	}
	return 0
}
