package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"webgpu/internal/castore"
	"webgpu/internal/db"
	"webgpu/internal/gpusim"
	"webgpu/internal/grader"
	"webgpu/internal/kernelcheck"
	"webgpu/internal/labs"
	"webgpu/internal/minicuda"
	"webgpu/internal/overload"
	"webgpu/internal/progcache"
	"webgpu/internal/queue"
	"webgpu/internal/sandbox"
	"webgpu/internal/webserver"
	"webgpu/internal/worker"
)

// The traced replay sends the same seeded ops through the layers' public
// functions in process, in the order the deployment's pipeline calls
// them, and times each call. A world is one private copy of every layer
// the pipeline touches, so its cache and database state evolve exactly
// as the deployment's do under the same op sequence. Two worlds replay
// side by side, one recording spans and one not; the difference in their
// op times is the tracing overhead.

// readOp offsets the op ID of the history read that follows submit op i.
const readOp = 1 << 20

type world struct {
	rec      *recorder
	ctrl     *overload.Controller
	broker   *queue.Broker
	scanner  *sandbox.Scanner
	store    *castore.Store
	probes   *castore.Store // probe puts land here, leaving store as the pipeline left it
	progs    *progcache.Cache
	db       *db.DB
	devs     []*gpusim.Device
	maxSteps int64
	nextJob  int

	// Layer counters outside the spans.
	bytesRead, bytesWritten int64
	execs, datasets         int
	simCycles, globalTx     int64
	sharedOps               int64
	historyRows             []float64
	lookups                 map[string]int // progcache outcome -> calls
	shed                    int
}

func newWorld(dir string, rec *recorder, in inputs) (*world, error) {
	cas := filepath.Join(dir, "cas")
	if len(in.stored) > 0 {
		// The same pre-population the deployment's set-up made.
		if err := prepopulateInChild(cas, in); err != nil {
			return nil, err
		}
	}
	store, err := castore.Open(cas, castore.Options{})
	if err != nil {
		return nil, err
	}
	probes, err := castore.Open(filepath.Join(dir, "probe-cas"), castore.Options{})
	if err != nil {
		store.Close()
		return nil, err
	}
	w := &world{
		rec:      rec,
		ctrl:     overload.New(overload.Config{}),
		broker:   queue.NewBroker(),
		scanner:  sandbox.NewScanner(nil, sandbox.ScanRaw),
		store:    store,
		probes:   probes,
		progs:    progcache.New(progcache.DefaultCapacity, nil),
		db:       db.New(),
		devs:     labs.NewDeviceSet(1),
		maxSteps: sandbox.DefaultLimits().MaxSteps,
		lookups:  map[string]int{},
	}
	w.progs.SetStore(store)
	return w, nil
}

func (w *world) close() {
	w.broker.Close()
	w.db.Close()
	w.store.Close()
	w.probes.Close()
}

func codeKey(user, lab string) string { return user + "|" + lab }

// enroll files a student's answers, as the deployment's set-up did.
func (w *world) enroll(user string, lab *labs.Lab) error {
	answers := make([]string, len(lab.Questions))
	for i := range answers {
		answers[i] = "answered"
	}
	return w.db.Update(func(tx *db.Tx) error {
		return tx.Put("answers", codeKey(user, lab.ID),
			webserver.AnswersRec{UserID: user, LabID: lab.ID, Answers: answers, At: time.Now()})
	})
}

// storeDelta runs fn and adds the artifact store's byte counters' growth
// to the world's totals.
func (w *world) storeDelta(fn func()) {
	before := w.store.Stats()
	fn()
	w.countStore(before)
}

// countStore adds the artifact store's byte counters' growth since
// before to the world's totals.
func (w *world) countStore(before castore.Stats) {
	after := w.store.Stats()
	w.bytesRead += after.BytesRead - before.BytesRead
	w.bytesWritten += after.BytesWritten - before.BytesWritten
}

// outcome classifies one progcache call from its counters' growth: a
// disk decode reports Miss as its Status, so only the stats tell it apart.
func outcome(before, after progcache.Stats) string {
	switch {
	case after.Hits > before.Hits || after.HitsDiagnostics > before.HitsDiagnostics:
		return "hit"
	case after.DiskHits > before.DiskHits || after.DiskDiagHits > before.DiskDiagHits:
		return "disk_hit"
	case after.Coalesced > before.Coalesced:
		return "hit"
	default:
		return "miss"
	}
}

// compile is the worker's compile stage: one progcache lookup, and beside
// it probes of the inner calls its outcome implies.
func (w *world) compile(op, parent int, src string, dialect minicuda.Dialect) (*minicuda.Program, error) {
	s := w.rec.begin(op, parent, "progcache.compile")
	before := w.progs.Stats()
	var prog *minicuda.Program
	var err error
	w.storeDelta(func() { prog, _, err = w.progs.CompileStatus(src, dialect) })
	out := outcome(before, w.progs.Stats())
	w.rec.end(s)
	w.rec.set(s, func(sp *span) { sp.Outcome = out })
	w.lookups[out]++
	if err != nil {
		return nil, err
	}
	key := progcache.Key(src, dialect)
	switch out {
	case "miss":
		var data []byte
		w.rec.probe(op, s, "minicuda.compile", func() { _, _ = minicuda.Compile(src, dialect) })
		w.rec.probe(op, s, "minicuda.encode", func() { data, _ = minicuda.EncodeProgram(prog) })
		w.rec.probe(op, s, "castore.put", func() { _ = w.probes.Put(key, progcache.ProgBlob, data) })
	case "disk_hit":
		var data []byte
		w.rec.probe(op, s, "castore.get", func() { data, _ = w.store.Get(key, progcache.ProgBlob) })
		w.rec.probe(op, s, "minicuda.decode", func() { _, _ = minicuda.DecodeProgram(data) })
	}
	return prog, nil
}

// analysis is the worker's kernelcheck stage under the warn policy: it
// runs beside execution, so its span is marked Overlap and the time the
// job then waits for it is the blocking kernelcheck.wait span.
type analysis struct {
	span  int
	out   string
	diags []kernelcheck.Diagnostic
	err   error
	done  chan struct{}
}

func (w *world) startAnalysis(op, parent int, src string, dialect minicuda.Dialect) *analysis {
	a := &analysis{span: w.rec.begin(op, parent, "progcache.diagnostics"), done: make(chan struct{})}
	w.rec.set(a.span, func(sp *span) { sp.Overlap = true })
	before := w.progs.Stats()
	go func() {
		defer close(a.done)
		w.storeDelta(func() { a.diags, a.err = w.progs.Diagnostics(src, dialect) })
		a.out = outcome(before, w.progs.Stats())
		w.rec.end(a.span)
		w.rec.set(a.span, func(sp *span) { sp.Outcome = a.out })
	}()
	return a
}

func (w *world) joinAnalysis(op, parent int, a *analysis, src string, dialect minicuda.Dialect, prog *minicuda.Program) ([]kernelcheck.Diagnostic, error) {
	s := w.rec.begin(op, parent, "kernelcheck.wait")
	<-a.done
	w.rec.end(s)
	w.lookups[a.out]++
	if a.err != nil {
		return nil, a.err
	}
	key := progcache.Key(src, dialect)
	switch a.out {
	case "miss":
		w.rec.probe(op, a.span, "kernelcheck.analyze", func() { kernelcheck.Analyze(prog) })
		w.rec.probe(op, a.span, "castore.put", func() {
			data, _ := json.Marshal(a.diags)
			_ = w.probes.Put(key, progcache.DiagBlob, data)
		})
	case "disk_hit":
		w.rec.probe(op, a.span, "castore.get", func() { _, _ = w.store.Get(key, progcache.DiagBlob) })
	}
	return a.diags, nil
}

// job replays the web tier's dispatch and a worker's pipeline for one
// job: admission, the source save, the broker hop, scan, compile,
// analysis beside execution, and the result's hop back.
func (w *world) job(op, root int, user string, o op, dataset int) (*worker.Result, *overload.Ticket, error) {
	ctx := context.Background()
	l := o.lab
	s := w.rec.begin(op, root, "overload.admit")
	tk, err := w.ctrl.Admit(ctx, overload.ClassSubmission, "user:"+user, "course:"+string(labs.CourseHPP))
	w.rec.end(s)
	if err != nil {
		w.shed++
		return nil, nil, err
	}

	s = w.rec.begin(op, root, "db.update")
	err = w.db.Update(func(tx *db.Tx) error {
		var rec webserver.CodeRec
		if err := tx.Get("code", codeKey(user, l.ID), &rec); err != nil && !errors.Is(err, db.ErrNotFound) {
			return err
		}
		rec.UserID, rec.LabID, rec.Source, rec.SavedAt = user, l.ID, o.source, time.Now()
		rec.Rev++
		if err := tx.Put("code", codeKey(user, l.ID), rec); err != nil {
			return err
		}
		return tx.Put("history", fmt.Sprintf("%s|%s|%08d", user, l.ID, rec.Rev), rec)
	})
	w.rec.end(s)
	if err != nil {
		return nil, tk, err
	}

	w.nextJob++
	job := &worker.Job{ID: fmt.Sprintf("job-%06d", w.nextJob), LabID: l.ID, UserID: user, Source: o.source,
		DatasetID: dataset, Requirements: l.Requirements, AnalysisPolicy: worker.AnalysisWarn}
	s = w.rec.begin(op, root, "queue.roundtrip")
	d, err := w.hop(worker.TopicJobs, worker.EncodeJob(job), l.Requirements)
	if err == nil {
		job, err = worker.DecodeJob(d.Msg.Payload)
	}
	w.rec.end(s)
	if err != nil {
		return nil, tk, err
	}

	s = w.rec.begin(op, root, "sandbox.scan")
	vs := w.scanner.Scan(job.Source)
	w.rec.end(s)
	if len(vs) > 0 {
		return nil, tk, fmt.Errorf("scan: %v", vs[0])
	}

	prog, err := w.compile(op, root, job.Source, l.Dialect)
	if err != nil {
		return nil, tk, err
	}
	a := w.startAnalysis(op, root, job.Source, l.Dialect)
	res := &worker.Result{JobID: job.ID}
	if dataset == worker.DatasetAll {
		s = w.rec.begin(op, root, "labs.exec")
		res.Outcomes = labs.RunAllCompiled(ctx, l, prog, w.devs, w.maxSteps)
		w.rec.end(s)
		w.countExec(res.Outcomes)
	} else {
		res.Outcomes = []*labs.Outcome{{LabID: l.ID, DatasetID: -1, Compiled: true}}
	}
	res.Diagnostics, err = w.joinAnalysis(op, root, a, job.Source, l.Dialect, prog)
	if err != nil {
		return nil, tk, err
	}

	s = w.rec.begin(op, root, "queue.roundtrip")
	if err := d.Ack(); err != nil {
		w.rec.end(s)
		return nil, tk, err
	}
	back, err := w.hop(worker.TopicResults, worker.EncodeResult(res), nil)
	if err == nil {
		res, err = worker.DecodeResult(back.Msg.Payload)
		if err == nil {
			err = back.Ack()
		}
	}
	w.rec.end(s)
	return res, tk, err
}

// hop publishes one message and polls it back off the topic.
func (w *world) hop(topic string, payload []byte, tags []string) (*queue.Delivery, error) {
	if _, err := w.broker.Publish(topic, payload, tags...); err != nil {
		return nil, err
	}
	caps := map[string]bool{"cuda": true, "opencl": true}
	d, ok, err := w.broker.Poll(topic, "replay", caps, worker.DefaultVisibility)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("queue: %s message not delivered", topic)
	}
	return d, nil
}

func (w *world) countExec(outs []*labs.Outcome) {
	w.execs++
	w.datasets += len(outs)
	for _, o := range outs {
		for _, k := range o.Kernels {
			w.simCycles += k.SimCycles
			w.globalTx += k.GlobalTx
			w.sharedOps += k.SharedOps
		}
	}
}

func (w *world) release(op, root int, tk *overload.Ticket) {
	if tk == nil {
		return
	}
	s := w.rec.begin(op, root, "overload.admit")
	tk.Release()
	w.rec.end(s)
}

// submit replays one graded submission; it returns the op's time less
// the probes made beside its calls.
func (w *world) submit(op int, user string, o op) (time.Duration, error) {
	start := time.Now()
	root := w.rec.begin(op, -1, "op.submit")
	res, tk, err := w.job(op, root, user, o, worker.DatasetAll)
	if err == nil {
		var answered int
		s := w.rec.begin(op, root, "db.view")
		_ = w.db.View(func(tx *db.Tx) error {
			var rec webserver.AnswersRec
			if tx.Get("answers", codeKey(user, o.lab.ID), &rec) == nil {
				for _, a := range rec.Answers {
					if a != "" {
						answered++
					}
				}
			}
			return nil
		})
		w.rec.end(s)

		s = w.rec.begin(op, root, "grader.score")
		g := grader.Score(o.lab, o.source, res.Outcomes, answered)
		grader.AttachDiagnostics(g, res.Diagnostics)
		w.rec.end(s)
		g.UserID = user
		err = fullMarks(o.lab, &webserver.SubmissionRec{Grade: g})

		s = w.rec.begin(op, root, "db.update")
		uerr := w.db.Update(func(tx *db.Tx) error {
			sub := webserver.SubmissionRec{ID: res.JobID, UserID: user, LabID: o.lab.ID, Source: o.source,
				Outcomes: res.Outcomes, Grade: g, At: time.Now(), Diagnostics: res.Diagnostics}
			if err := tx.Put("submissions", sub.ID, sub); err != nil {
				return err
			}
			return tx.Put("grades", codeKey(user, o.lab.ID), g)
		})
		w.rec.end(s)
		if err == nil {
			err = uerr
		}
	}
	w.release(op, root, tk)
	w.rec.end(root)
	return time.Since(start) - w.probeTime(op), err
}

// read replays the history read after submit op: admission as a read,
// then the scan of the whole history table for the student's revisions.
func (w *world) read(op int, user string, o op) error {
	root := w.rec.begin(op, -1, "op.read")
	s := w.rec.begin(op, root, "overload.admit")
	tk, err := w.ctrl.Admit(context.Background(), overload.ClassRead, "user:"+user, "course:"+string(labs.CourseHPP))
	w.rec.end(s)
	if err != nil {
		w.shed++
		w.rec.end(root)
		return err
	}
	var out []webserver.CodeRec
	rows := 0
	s = w.rec.begin(op, root, "db.view")
	_ = w.db.View(func(tx *db.Tx) error {
		prefix := user + "|" + o.lab.ID + "|"
		keys := tx.Keys("history")
		rows = len(keys)
		for _, k := range keys {
			if strings.HasPrefix(k, prefix) {
				var rec webserver.CodeRec
				if tx.Get("history", k, &rec) == nil {
					out = append(out, rec)
				}
			}
		}
		return nil
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Rev < out[j].Rev })
	w.rec.end(s)
	w.historyRows = append(w.historyRows, float64(rows))
	w.release(op, root, tk)
	w.rec.end(root)
	if n := len(out); n == 0 || out[n-1].Source != o.source {
		return fmt.Errorf("history: submitted source missing")
	}
	return nil
}

// compileOnly replays one press of Compile.
func (w *world) compileOnly(op int, user string, o op) (time.Duration, error) {
	start := time.Now()
	root := w.rec.begin(op, -1, "op.compile")
	res, tk, err := w.job(op, root, user, o, worker.DatasetCompileOnly)
	if err == nil && kernelcheck.ErrorCount(res.Diagnostics) > 0 {
		err = fmt.Errorf("compile: error diagnostics")
	}
	w.release(op, root, tk)
	w.rec.end(root)
	return time.Since(start) - w.probeTime(op), err
}

// probeTime sums the probes recorded for op (they ran inside its span).
func (w *world) probeTime(op int) time.Duration {
	if !w.rec.on {
		return 0
	}
	var d time.Duration
	w.rec.mu.Lock()
	for i := len(w.rec.spans) - 1; i >= 0 && w.rec.spans[i].Op == op; i-- {
		if w.rec.spans[i].Probe {
			d += w.rec.spans[i].dur()
		}
	}
	w.rec.mu.Unlock()
	return d
}
