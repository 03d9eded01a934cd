// Package macrobench is the whole-pipeline macro-benchmark suite behind
// `webgpu-bench -macro` (ROADMAP item 5: continuous perf CI). Where the
// micro-benchmarks time one kernel in one engine, a macro scenario boots
// a full platform — web tier, admission control, broker, worker fleet,
// grader — and drives it over real HTTP with a population of submitters,
// readers, and live-draft pushers, recording the end-to-end latency
// distribution and the overload layer's shed decisions.
//
// Scenarios are seeded and deterministic in their decisions (arrival
// jitter, chaos faults), dolt-style: every run emits a JSON trajectory
// (`BENCH_macro.json`, schema webgpu-macro/v1) that tools/benchgate
// compares against checked-in ceilings, so a PR that regresses p99
// submit latency or loses a job under spike load fails CI the same way a
// kernel slowdown does.
//
// The deadline-spike scenarios are calibrated against the paper's
// workload models: Table I enrollment (~36k registrants/offering) and
// the Figure 1 activity envelope, whose Wednesday peak runs ~10× the
// series mean — that peak-to-mean ratio is the spike multiplier.
package macrobench

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"webgpu/internal/faultinject"
	"webgpu/internal/metrics"
	"webgpu/internal/overload"
	"webgpu/internal/platform"
	"webgpu/internal/sandbox"
	"webgpu/internal/workload"
)

// now is the wall-clock seam: scenario timing flows through it so tests
// can pin it, and tools/repolint bans direct time.Now calls in this
// package to keep every duration measurement on the seam.
var now = time.Now

// Schema identifies the BENCH_macro.json layout for benchgate.
const Schema = "webgpu-macro/v1"

// Scenario configures one macro run.
type Scenario struct {
	Name          string
	Seed          int64
	Arch          platform.Architecture
	Workers       int
	GPUsPerWorker int

	// Submissions is the number of distinct students submitting once
	// each; zero derives it as Capacity × Multiplier.
	Submissions int
	// Multiplier scales submissions relative to worker capacity
	// (Workers × GPUsPerWorker). The deadline spike uses the Figure 1
	// peak-to-mean ratio (~10×).
	Multiplier float64

	// Readers / Drafters are the low-priority background populations:
	// each reader loops history GETs and each drafter pushes live-session
	// drafts while the spike runs, so the scenario records what the
	// admission layer sheds to protect the submissions.
	Readers  int
	Drafters int

	// Chaos arms the fault-injection registry (chaostest-style points and
	// ratios) at FaultRate for the duration of the spike; the run then
	// disables faults, redrives dead letters, and drains before checking
	// the conservation invariant.
	Chaos     bool
	FaultRate float64

	// WarmCache pre-submits the reference solution once before timing, so
	// every measured job hits the program cache (the steady-state path).
	WarmCache bool

	// Restart arms the restart-storm flow: boot against a durable artifact
	// store, warm it with real traffic, tear the platform down, boot a
	// second platform on the same directory, and measure the post-restart
	// submit path. The scenario fails if the rebooted deployment
	// recompiles any cached source.
	Restart bool
	// CacheDir is the durable artifact store directory (empty: restart
	// scenarios use a fresh temp dir removed after the run; others stay
	// memory-only).
	CacheDir string
	// PreloadHottest eagerly warm-starts this many programs at boot
	// (restart scenarios default to half the working set, so both the
	// eager-preload and lazy read-through paths are exercised).
	PreloadHottest int

	Timeout time.Duration
}

func (s Scenario) withDefaults() Scenario {
	if s.Arch == 0 {
		s.Arch = platform.V2
	}
	if s.Workers <= 0 {
		s.Workers = 2
	}
	if s.GPUsPerWorker <= 0 {
		s.GPUsPerWorker = 2
	}
	if s.Multiplier <= 0 {
		s.Multiplier = 1
	}
	if s.Submissions <= 0 {
		s.Submissions = int(math.Ceil(float64(s.Workers*s.GPUsPerWorker) * s.Multiplier))
	}
	if s.Chaos && s.FaultRate <= 0 {
		s.FaultRate = 0.05
	}
	if s.Timeout <= 0 {
		s.Timeout = 120 * time.Second
	}
	return s
}

// Capacity is the worker pool's concurrent-job capacity.
func (s Scenario) Capacity() int { return s.Workers * s.GPUsPerWorker }

// Result is one scenario's measured outcome — the JSON row of
// BENCH_macro.json.
type Result struct {
	Name        string  `json:"name"`
	Seed        int64   `json:"seed"`
	Arch        string  `json:"arch"`
	Capacity    int     `json:"capacity"`
	Submissions int     `json:"submissions"`
	Chaos       bool    `json:"chaos,omitempty"`
	FaultRate   float64 `json:"fault_rate,omitempty"`

	// Submission-class outcomes: every submission must eventually
	// succeed; retries count transient 503s absorbed by the client.
	SubmitOK      int `json:"submit_ok"`
	SubmitShed    int `json:"submit_shed"`
	SubmitRetries int `json:"submit_retries"`

	// Low-priority-class outcomes: sheds here are the overload layer
	// working, not a failure.
	ReadOK    int `json:"read_ok"`
	ReadShed  int `json:"read_shed"`
	DraftOK   int `json:"draft_ok"`
	DraftShed int `json:"draft_shed"`

	// Conservation: LostJobs is Broker.Unaccounted() after the drain
	// (0 = every published job is accounted for), DeadLetters what
	// remained parked after redrive (must be 0).
	LostJobs         int64 `json:"lost_jobs"`
	DeadLetters      int   `json:"dead_letters"`
	DuplicateResults int64 `json:"duplicate_results"`

	// Restart-storm phases: submit latency medians for the first boot's
	// cold pass, its warm re-pass (the pre-restart baseline), and the
	// rebooted platform's pass against the same store directory — plus how
	// many cached sources the reboot recompiled (must be 0) and how many
	// it served from the durable store instead.
	ColdP50Ms        float64 `json:"cold_p50_ms,omitempty"`
	PreRestartP50Ms  float64 `json:"pre_restart_p50_ms,omitempty"`
	PostRestartP50Ms float64 `json:"post_restart_p50_ms,omitempty"`
	Recompiles       int64   `json:"recompiles,omitempty"`
	DiskHits         int64   `json:"disk_hits,omitempty"`

	// End-to-end submission latency over HTTP, milliseconds.
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`

	DurationMs float64 `json:"duration_ms"`
}

func (r Result) String() string {
	return fmt.Sprintf("%s: %d/%d submits ok (p50 %.1fms p99 %.1fms max %.1fms), %d read shed, %d draft shed, %d lost, %d retries, %.0fms total",
		r.Name, r.SubmitOK, r.Submissions, r.P50Ms, r.P99Ms, r.MaxMs,
		r.ReadShed, r.DraftShed, r.LostJobs, r.SubmitRetries, r.DurationMs)
}

// File is the BENCH_macro.json trajectory.
type File struct {
	Schema    string   `json:"schema"`
	Note      string   `json:"note,omitempty"`
	Scenarios []Result `json:"scenarios"`
}

// SpikeMultiplier is the Figure 1 peak-to-trough activity ratio: the
// factor by which the Wednesday-evening deadline rush (112 active
// students) exceeds the late-course quiet level (8) the cluster is
// provisioned for. The deadline-spike scenarios submit at this multiple
// of worker capacity (14× for the paper's model — comfortably past the
// 10× survival bar).
func SpikeMultiplier() float64 {
	m := workload.Figure1Model()
	if m.Trough <= 0 || m.Peak <= m.Trough {
		return 10
	}
	return m.Peak / m.Trough
}

// Scenarios returns the standard suite, smallest first. seed 0 keeps
// each scenario's own default seed.
func Scenarios(seed int64) []Scenario {
	spike := SpikeMultiplier()
	base := func(name string, s Scenario) Scenario {
		s.Name = name
		if seed != 0 {
			s.Seed = seed
		} else if s.Seed == 0 {
			s.Seed = 2015 // the paper's offering year, like workload's default
		}
		return s
	}
	return []Scenario{
		base("cold-submit", Scenario{Workers: 2, GPUsPerWorker: 2, Multiplier: 1}),
		base("warm-submit", Scenario{Workers: 2, GPUsPerWorker: 2, Multiplier: 1, WarmCache: true}),
		base("deadline-spike", Scenario{Workers: 2, GPUsPerWorker: 2,
			Multiplier: spike, Readers: 3, Drafters: 3, WarmCache: true}),
		base("chaos-spike", Scenario{Workers: 2, GPUsPerWorker: 2,
			Multiplier: spike, Readers: 3, Drafters: 3, WarmCache: true,
			Chaos: true, FaultRate: 0.05}),
		base("restart-storm", Scenario{Workers: 2, GPUsPerWorker: 2,
			Multiplier: 2, Restart: true}),
	}
}

// ByName returns the named standard scenario, or false.
func ByName(name string, seed int64) (Scenario, bool) {
	for _, s := range Scenarios(seed) {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// newPlatform builds the deployment under test: overload limits sized to
// the scenario (pressure 1.0 = backlog at 2× capacity, so a 10× spike
// drives reads and drafts into shedding), the §III-C per-user limiter
// shortened out of the measurement's way, and chaos faults if requested.
func newPlatform(s Scenario, reg *faultinject.Registry) *platform.Platform {
	lim := sandbox.DefaultLimits()
	lim.SubmitInterval = time.Millisecond
	return platform.New(platform.Options{
		Arch:           s.Arch,
		Workers:        s.Workers,
		GPUsPerWorker:  s.GPUsPerWorker,
		Faults:         reg,
		Limits:         lim,
		CacheDir:       s.CacheDir,
		PreloadHottest: s.PreloadHottest,
		DispatchWait:   5 * time.Second,        // chaos: bound a lost dispatch, client retries
		Visibility:     250 * time.Millisecond, // fast redelivery of crash-abandoned leases
		Overload: &overload.Config{
			// Backlog at one full pool's worth of jobs = saturated: while
			// the spike keeps the workers busy the broker backlog pins
			// pressure at ~1.0, so reads (ShedAt 0.5) and drafts (0.75)
			// shed for the whole saturated stretch.
			QueueDepthLimit: s.Capacity(),
			Limits: map[overload.Class]overload.ClassLimit{
				// Submissions: the gate admits ahead of the pool (keeping
				// the broker fed — and its backlog honest) and the queue
				// holds the entire spike. Nothing sheds; everything waits
				// its turn.
				overload.ClassSubmission: {
					MaxConcurrent: 2 * s.Capacity(),
					MaxQueue:      s.Submissions,
					QueueTimeout:  s.Timeout,
				},
			},
		},
	})
}

// arm enables the chaostest fault points at the scenario's rate.
func arm(reg *faultinject.Registry, rate float64) {
	reg.Enable(faultinject.PointQueuePublish, faultinject.Fault{Prob: rate * 0.5})
	reg.Enable(faultinject.PointQueueAck, faultinject.Fault{Prob: rate * 0.5})
	reg.Enable(faultinject.PointQueuePoll, faultinject.Fault{Prob: rate * 0.2})
	reg.Enable(faultinject.PointDriverCrashBeforeAck, faultinject.Fault{Prob: rate * 0.3})
	reg.Enable(faultinject.PointDriverCrashAfterPublish, faultinject.Fault{Prob: rate * 0.3})
	reg.Enable(faultinject.PointDriverPublishResult, faultinject.Fault{Prob: rate * 0.3})
	reg.Enable(faultinject.PointNodeCompile, faultinject.Fault{Prob: rate * 0.3})
	reg.Enable(faultinject.PointNodeExec, faultinject.Fault{Prob: rate * 0.5})
}

// summarize fills the latency fields from raw per-submit durations.
func (r *Result) summarize(latencies []time.Duration) {
	ms := make([]float64, len(latencies))
	for i, d := range latencies {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	r.P50Ms = metrics.Quantile(ms, 0.50)
	r.P95Ms = metrics.Quantile(ms, 0.95)
	r.P99Ms = metrics.Quantile(ms, 0.99)
	if n := len(ms); n > 0 {
		r.MaxMs = ms[n-1]
	}
}

// jitters derives the per-submitter arrival offsets from the seed: the
// spike is front-loaded (most arrivals in the first quarter window) the
// way a deadline rush is, and fully replayable.
func jitters(seed int64, n int, window time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	for i := range out {
		// Square the uniform draw: density piles up near zero.
		u := rng.Float64()
		out[i] = time.Duration(u * u * float64(window))
	}
	return out
}
