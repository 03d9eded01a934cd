// Command perfbench is the repository benchmark. It boots the v2
// platform in process, drives it over real HTTP with seeded inputs, checks
// every reply, and prints the end-to-end metrics of one workload; with
// -trace 1 it instead replays the same inputs through each layer's public
// functions and prints the per-layer breakdown. See README.md.
//
// Run from the repository root:
//
//	bash perfbench/run.sh --workload submit-grade --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is the JSON result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"syscall"
	"time"
)

var workloads = []string{"submit-grade", "compile-mix", "draft-session"}

// setupRounds is how many times a run sets up; setup_s is their median
// and the last one is measured.
const setupRounds = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "submit-grade | compile-mix | draft-session")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "length of the measured window, in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics over HTTP; 1: per-layer metrics from the traced replay")
	// Set by the benchmark for its own child process, which plays
	// compile-mix's earlier deployment on the store at this directory.
	prepop := flag.String("prepopulate", "", "")
	window := flag.Float64("window", 0, "")
	flag.Parse()
	if *prepop != "" {
		in := makeInputs("compile-mix", *seed, *window)
		if err := prepopulate(*prepop, in.stored); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*workload, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds int, traced bool) error {
	known := false
	for _, w := range workloads {
		known = known || w == workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
	}
	if seconds < 1 {
		return fmt.Errorf("seconds must be at least 1")
	}
	dir, err := runDir()
	if err != nil {
		return err
	}
	defer settle(dir)

	e := currentEnv(seed)
	fmt.Printf("# perfbench workload=%s seconds=%d trace=%v\n# env %s\n", workload, seconds, traced, e)

	window := time.Duration(seconds) * time.Second
	if traced {
		// The traced run spends half its window on HTTP and half on the
		// two in-process replays.
		window /= 2
	}
	in := makeInputs(workload, seed, window.Seconds())

	var pr *prepared
	var setups []float64
	prev := ""
	for k := 0; k < setupRounds; k++ {
		if pr != nil {
			pr.close()
			settle(prev)
		}
		sub, err := os.MkdirTemp(dir, "setup-")
		if err != nil {
			return err
		}
		pr, err = setUp(workload, in, sub)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, pr.took.Seconds())
		prev = sub
	}
	settle("")

	var res result
	if traced {
		res, err = runTraced(workload, in, pr, window, dir, e)
	} else {
		res = runEndToEnd(workload, in, pr, window)
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		fmt.Printf("# setup_s rounds=%.4f\n", setups)
	}
	pr.close()
	if err != nil {
		return err
	}
	printResult(res)
	return nil
}

// runEndToEnd measures the workload over HTTP with tracing off.
func runEndToEnd(workload string, in inputs, pr *prepared, window time.Duration) result {
	var h *httpResult
	switch workload {
	case "submit-grade":
		h = runSubmitHTTP(pr, in.ops, window)
	case "compile-mix":
		h = runCompileHTTP(pr, in, window)
	case "draft-session":
		h = runDraftHTTP(pr, in.draft, window)
		fmt.Printf("# draft lab=%s kernel=%s coalesced_or_cancelled=%d\n", in.draft.lab.ID, in.draft.kernel, h.coalescedOrMissed)
	}
	lat := h.opLatencies()
	m := map[string]metric{
		"op_p50_ms": {quantile(lat, 0.50), "ms"},
		"op_p95_ms": {slicedQuantile(h.opMs, 0.95), "ms"},
		"ops_per_s": {float64(len(lat)) / h.elapsed.Seconds(), "1/s"},
	}
	if h.rssMB > 0 {
		m["peak_rss_mb"] = metric{h.rssMB, "MB"}
	} else {
		m["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	}
	report := map[string]metric{
		"ops_failed_ratio": {float64(h.failed) / float64(max(h.attempted, 1)), "ratio"},
		"op_p99_ms":        {quantile(lat, 0.99), "ms"},
	}
	if workload == "submit-grade" {
		report["read_p50_ms"] = metric{quantile(h.readMs, 0.50), "ms"}
		report["read_p99_ms"] = metric{quantile(h.readMs, 0.99), "ms"}
	}
	if workload == "draft-session" {
		report["gen_late_p50_ms"] = metric{quantile(h.lateMs, 0.50), "ms"}
		report["gen_late_p99_ms"] = metric{quantile(h.lateMs, 0.99), "ms"}
	}
	fmt.Printf("# ops attempted=%d succeeded=%d failed=%d samples=%d elapsed_s=%.3f exhausted=%v\n",
		h.attempted, h.attempted-h.failed, h.failed, len(lat), h.elapsed.Seconds(), h.exhausted)
	for _, e := range h.errs {
		fmt.Printf("# failure: %s\n", e)
	}
	printMetrics("report", report)
	kinds := make([]string, 0, len(h.perKind))
	for k := range h.perKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		xs := h.perKind[k]
		fmt.Printf("# by %s: n=%d p50_ms=%.3f p99_ms=%.3f\n", k, len(xs), quantile(xs, 0.5), quantile(xs, 0.99))
	}
	return result{
		Correct:   h.failed == 0,
		Attempted: h.attempted,
		Failed:    h.failed,
		Metrics:   m,
	}
}

// settle removes dir (when given) and flushes the file systems, outside
// any timed section. A set-up writes thousands of artifact files and a
// run deletes them; on a disk mounted with online discard the deletes and
// any dirty pages would otherwise be paid for inside a later timed
// window, or by the next run's set-up.
func settle(dir string) {
	if dir != "" {
		if err := os.RemoveAll(dir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
	}
	syscall.Sync()
}

func printMetrics(tag string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %s %s = %.6g %s\n", tag, n, m[n].Value, m[n].Unit)
	}
}

func printResult(res result) {
	printMetrics("metric", res.Metrics)
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
