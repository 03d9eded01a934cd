package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// accountTolerance is how far the layer self times plus the transport
// residual may sit from the HTTP op median before the traced run reports
// that they do not account for it.
const accountTolerance = 0.10

// runTraced is the per-layer run. It drives the deployment over HTTP for
// the first half of the window exactly as the end-to-end run does (those
// op times feed only the transport residual), then replays the same ops
// in process for the second half through two worlds, one recording spans
// and one not, alternating between them op by op.
func runTraced(workload string, in inputs, pr *prepared, window time.Duration, dir string, e env) (result, error) {
	var h *httpResult
	switch workload {
	case "submit-grade":
		h = runSubmitHTTP(pr, in.ops, window)
	case "compile-mix":
		h = runCompileHTTP(pr, in, window)
	case "draft-session":
		h = runDraftHTTP(pr, in.draft, window)
	}

	t0 := time.Now()
	on, off := newRecorder(true, t0), newRecorder(false, t0)
	won, err := newWorld(filepath.Join(dir, "replay-on"), on, in)
	if err != nil {
		return result{}, err
	}
	defer won.close()
	woff, err := newWorld(filepath.Join(dir, "replay-off"), off, in)
	if err != nil {
		return result{}, err
	}
	defer woff.close()

	onDur := map[int]time.Duration{}
	offDur := map[int]time.Duration{}
	var replayErrs []error
	replayed := 0 // op replays attempted, both worlds
	var dr *draftReplay
	switch workload {
	case "draft-session":
		// The open loop cannot interleave two worlds op by op, so each
		// replays the first quarter-window of the schedule in turn.
		var drOff *draftReplay
		if dr, err = won.drafts(in.draft, window/2); err != nil {
			return result{}, err
		}
		if drOff, err = woff.drafts(in.draft, window/2); err != nil {
			return result{}, err
		}
		onDur, offDur = dr.opDur, drOff.opDur
		replayErrs = append(dr.failed, drOff.failed...)
		replayed = dr.drafts + drOff.drafts
	default:
		replayErrs, replayed, err = replayClosedLoop(workload, in, h, won, woff, onDur, offDur, window)
		if err != nil {
			return result{}, err
		}
	}

	spans := on.snapshot()
	if err := writeSpans(workload, e, spans); err != nil {
		return result{}, err
	}
	ix := indexSpans(spans)
	m := layerMetrics(ix, won, woff, h, dr)

	// Transport residual: each op's HTTP time less its traced in-process
	// time; layer self times plus the residual should then account for
	// the HTTP op median.
	var residual, httpMs, accounted, overhead []float64
	var onSum, offSum time.Duration
	shares := map[string]float64{}
	paired := 0
	for _, op := range ix.ops() {
		httpOp, ok := h.opMs[op]
		d, okOn := onDur[op]
		dOff, okOff := offDur[op]
		if !ok || !okOn || !okOff {
			continue
		}
		paired++
		res := httpOp - ms(d)
		residual = append(residual, res)
		httpMs = append(httpMs, httpOp)
		blocking := 0.0
		for layer, v := range ix.layerShares(op) {
			blocking += ms(v)
			shares[layer] += ms(v)
		}
		shares["transport"] += res
		accounted = append(accounted, blocking+res)
		overhead = append(overhead, ms(d-dOff))
		onSum += d
		offSum += dOff
	}
	addTimes(m, "transport.residual_ms", residual)
	opP50, sumP50 := median(httpMs), median(accounted)
	errRatio := ratio(math.Abs(sumP50-opP50), opP50)
	m["account.op_p50_ms"] = metric{opP50, "ms"}
	m["account.sum_p50_ms"] = metric{sumP50, "ms"}
	m["account.error_ratio"] = metric{errRatio, "ratio"}
	m["trace.overhead_ms"] = metric{median(overhead), "ms"}
	overheadRatio := ratio(float64(onSum-offSum), float64(offSum))
	m["trace.overhead_ratio"] = metric{overheadRatio, "ratio"}
	m["replay.ops"] = metric{float64(paired), "count"}

	fmt.Printf("# traced: http ops=%d replayed pairs=%d spans=%d\n", len(h.opMs), paired, len(spans))
	fmt.Printf("# account: op p50 %.3f ms, layer self times + residual p50 %.3f ms, error %.1f%% (tolerance %.0f%%): %s\n",
		opP50, sumP50, 100*errRatio, 100*accountTolerance, verdict(errRatio <= accountTolerance))
	fmt.Printf("# tracing overhead: %.4f ms per op (p50), %.2f%% of untraced replay time\n", median(overhead), 100*overheadRatio)
	if paired > 0 {
		layers := make([]string, 0, len(shares))
		for l := range shares {
			layers = append(layers, l)
		}
		sort.Slice(layers, func(i, j int) bool { return shares[layers[i]] > shares[layers[j]] })
		for _, l := range layers {
			fmt.Printf("# share %-12s %8.3f ms/op\n", l, shares[l]/float64(paired))
		}
	}

	failed := h.failed + len(replayErrs)
	for i, err := range replayErrs {
		if i < 5 {
			fmt.Printf("# replay failure: %v\n", err)
		}
	}
	for _, e := range h.errs {
		fmt.Printf("# failure: %s\n", e)
	}
	return result{
		Correct:   failed == 0,
		Attempted: h.attempted + replayed,
		Failed:    failed,
		Metrics:   m,
	}, nil
}

func verdict(ok bool) string {
	if ok {
		return "within tolerance"
	}
	return "NOT within tolerance"
}

// replayClosedLoop replays the HTTP phase's ops in index order through
// both worlds, alternating which goes first, until the replay half of
// the window is spent. It returns the replay failures and how many op
// replays it attempted.
func replayClosedLoop(workload string, in inputs, h *httpResult, won, woff *world, onDur, offDur map[int]time.Duration, window time.Duration) ([]error, int, error) {
	var errs []error
	attempts := 0
	user := func(i int) string { return fmt.Sprintf("u%05d", i) }
	warm := func(w *world) error {
		on := w.rec.on
		w.rec.on = false
		defer func() { w.rec.on = on }()
		for j, o := range in.warm {
			u := fmt.Sprintf("w%d", j)
			if workload == "compile-mix" {
				if _, err := w.compileOnly(-1, u, o); err != nil {
					return err
				}
				continue
			}
			if err := w.enroll(u, o.lab); err != nil {
				return err
			}
			if _, err := w.submit(-1, u, o); err != nil {
				return err
			}
			if err := w.read(-1, u, o); err != nil {
				return err
			}
		}
		return nil
	}
	for _, w := range []*world{won, woff} {
		if err := warm(w); err != nil {
			return nil, 0, fmt.Errorf("replay warm-up: %w", err)
		}
	}
	one := func(w *world, i int) (time.Duration, error) {
		o := in.ops[i]
		if workload == "compile-mix" {
			return w.compileOnly(i, "c", o)
		}
		if err := w.enroll(user(i), o.lab); err != nil {
			return 0, err
		}
		d, err := w.submit(i, user(i), o)
		if err == nil {
			err = w.read(readOp+i, user(i), o)
		}
		return d, err
	}
	deadline := time.Now().Add(window)
	n := 0
	for i := range in.ops {
		if _, ok := h.opMs[i]; ok {
			n = i + 1
		}
	}
	for i := 0; i < n && time.Now().Before(deadline); i++ {
		order := []*world{won, woff}
		if i%2 == 1 {
			order = []*world{woff, won}
		}
		for _, w := range order {
			attempts++
			d, err := one(w, i)
			if err != nil {
				errs = append(errs, fmt.Errorf("replay op %d: %w", i, err))
				continue
			}
			if w == won {
				onDur[i] = d
			} else {
				offDur[i] = d
			}
		}
	}
	return errs, attempts, nil
}

// writeSpans keeps the traced replay's spans for later inspection.
func writeSpans(workload string, e env, spans []span) error {
	path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-seed%d.json", workload, e.Seed))
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Env      env    `json:"env"`
		Spans    []span `json:"spans"`
	}{workload, e, spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("# spans written to %s\n", path)
	return nil
}
