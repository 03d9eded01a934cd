package main

// layerSpans are the spans reported per call: span "x.y" becomes the
// metric "x.y_ms", as .p50 and .p99 of its self time with .calls.
var layerSpans = []string{
	"queue.roundtrip",
	"overload.admit",
	"sandbox.scan",
	"castore.get",
	"castore.put",
	"minicuda.compile",
	"minicuda.encode",
	"minicuda.decode",
	"kernelcheck.analyze",
	"kernelcheck.incremental",
	"kernelcheck.wait",
	"labs.exec",
	"grader.score",
	"db.update",
	"db.view",
	"devsession.push",
}

// progcacheOutcomes are the three ways a progcache lookup is satisfied.
var progcacheOutcomes = []string{"hit", "disk_hit", "miss"}

func addTimes(m map[string]metric, name string, xs []float64) {
	m[name+".p50"] = metric{quantile(xs, 0.50), "ms"}
	m[name+".p99"] = metric{quantile(xs, 0.99), "ms"}
	m[name+".calls"] = metric{float64(len(xs)), "count"}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics turns the traced world's spans and counters into the
// per-layer metrics (the transport residual and the accounting are added
// by the caller). Metrics a workload does not exercise read 0 calls.
func layerMetrics(ix *spanIndex, w, woff *world, h *httpResult, dr *draftReplay) map[string]metric {
	m := map[string]metric{}
	for _, sp := range layerSpans {
		addTimes(m, sp+"_ms", ix.callTimes(sp, ""))
	}
	lookups := 0
	for _, out := range progcacheOutcomes {
		xs := append(ix.callTimes("progcache.compile", out), ix.callTimes("progcache.diagnostics", out)...)
		addTimes(m, "progcache."+out+"_ms", xs)
		lookups += w.lookups[out]
	}
	for _, out := range progcacheOutcomes {
		m["progcache."+out+"_ratio"] = metric{ratio(float64(w.lookups[out]), float64(lookups)), "ratio"}
	}
	m["progcache.lookups"] = metric{float64(lookups), "count"}

	ops := float64(len(ix.ops()))
	m["castore.bytes_read"] = metric{ratio(float64(w.bytesRead), ops), "B/op"}
	m["castore.bytes_written"] = metric{ratio(float64(w.bytesWritten), ops), "B/op"}

	m["labs.datasets"] = metric{ratio(float64(w.datasets), float64(w.execs)), "count/op"}
	m["gpusim.sim_cycles"] = metric{ratio(float64(w.simCycles), float64(w.execs)), "cycles/op"}
	m["gpusim.global_tx"] = metric{ratio(float64(w.globalTx), float64(w.execs)), "count/op"}
	m["gpusim.shared_ops"] = metric{ratio(float64(w.sharedOps), float64(w.execs)), "count/op"}
	m["db.history_rows"] = metric{median(w.historyRows), "count"}

	m["overload.shed"] = metric{float64(w.shed + woff.shed + h.shed), "count"}

	// The live loop's own report of its incremental engine, from the
	// diagnostics events of the HTTP phase.
	fns := float64(h.reused + h.analyzed)
	m["kernelcheck.reused_ratio"] = metric{ratio(float64(h.reused), fns), "ratio"}
	m["kernelcheck.functions"] = metric{fns, "count"}

	var toCompile, toDiag []float64
	drafts, coalesced := 0, 0
	if dr != nil {
		toCompile, toDiag = dr.compileMs, dr.diagMs
		drafts, coalesced = dr.drafts, dr.drafts-dr.ownDiag
	}
	addTimes(m, "devsession.to_compile_event_ms", toCompile)
	addTimes(m, "devsession.to_diag_event_ms", toDiag)
	m["devsession.coalesced"] = metric{float64(coalesced), "count"}
	m["devsession.drafts"] = metric{float64(drafts), "count"}
	addTimes(m, "gen.late_ms", h.lateMs)
	return m
}
