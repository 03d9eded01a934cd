package macrobench

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"time"

	"webgpu/internal/labs"
	"webgpu/internal/metrics"
)

// runRestartStorm measures the cold-restart recompile storm end to end:
// boot a platform against a durable artifact store, warm the store with
// real submission traffic, tear the whole deployment down, boot a second
// platform on the same directory, and drive the same working set through
// it. A deployment without the store would recompile every source after
// the restart (the storm); with it, the reboot must recompile nothing
// and serve near-warm latency — both are hard assertions here, so the
// scenario fails (and trips benchgate) if durability regresses.
func runRestartStorm(s Scenario) (Result, error) {
	res := Result{
		Name:        s.Name,
		Seed:        s.Seed,
		Arch:        s.Arch.String(),
		Capacity:    s.Capacity(),
		Submissions: s.Submissions,
	}
	fail := func(format string, args ...interface{}) (Result, error) {
		return res, fmt.Errorf("%s: %s (replay with seed=%d)",
			s.Name, fmt.Sprintf(format, args...), s.Seed)
	}

	dir := s.CacheDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "webgpu-restart-storm-")
		if err != nil {
			return fail("cache dir: %v", err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	// The working set: one distinct source per submitter, each the
	// reference solution under a distinguishing comment, so every
	// submission compiles to its own cache key but still grades correct.
	ref := labs.ByID(benchLab).Reference
	sources := make([]string, s.Submissions)
	for i := range sources {
		sources[i] = fmt.Sprintf("// restart-storm variant %d\n%s", i, ref)
	}
	preload := s.PreloadHottest
	if preload == 0 {
		preload = len(sources) / 2
	}

	deadline := now().Add(s.Timeout)
	start := now()

	// Phase A: first boot. The cold pass compiles and persists every
	// program; the warm re-pass sets the pre-restart latency baseline
	// (memory-cache hits, the steady state the reboot must match).
	sA := s
	sA.CacheDir = dir
	sA.PreloadHottest = 0
	p1 := newPlatform(sA, nil)
	ts1 := httptest.NewServer(p1.Handler())
	hc1 := ts1.Client()
	hc1.Timeout = s.Timeout
	closed1 := false
	close1 := func() {
		if !closed1 {
			closed1 = true
			ts1.Close()
			p1.Close()
		}
	}
	defer close1()
	if p1.ArtifactStore() == nil {
		return fail("first boot has no artifact store at %s", dir)
	}

	clientsA, err := registerClients(ts1.URL, hc1, s.Name+"-a", len(sources))
	if err != nil {
		return fail("setup: %v", err)
	}
	cold, err := submitWave(clientsA, sources, s.Seed, deadline)
	if err != nil {
		return fail("cold pass: %v", err)
	}
	warm, err := submitWave(clientsA, sources, s.Seed+1, deadline)
	if err != nil {
		return fail("warm pass: %v", err)
	}
	persisted := p1.ArtifactStore().Stats().Objects
	close1()

	// Phase B: the restart. A fresh platform on the same store directory
	// eagerly preloads half the working set and lazily reads through for
	// the rest; either way, nothing may recompile.
	sB := s
	sB.CacheDir = dir
	sB.PreloadHottest = preload
	p2 := newPlatform(sB, nil)
	defer p2.Close()
	ts2 := httptest.NewServer(p2.Handler())
	defer ts2.Close()
	hc2 := ts2.Client()
	hc2.Timeout = s.Timeout
	if p2.ArtifactStore() == nil {
		return fail("rebooted platform has no artifact store at %s", dir)
	}

	clientsB, err := registerClients(ts2.URL, hc2, s.Name+"-b", len(sources))
	if err != nil {
		return fail("restart setup: %v", err)
	}
	post, err := submitWave(clientsB, sources, s.Seed+2, deadline)
	if err != nil {
		return fail("post-restart pass: %v", err)
	}

	stats := p2.ProgCache().Stats()
	res.SubmitOK = len(post)
	res.Recompiles = stats.Compiles
	res.DiskHits = stats.DiskHits
	res.ColdP50Ms = p50ms(cold)
	res.PreRestartP50Ms = p50ms(warm)
	res.PostRestartP50Ms = p50ms(post)
	res.summarize(post)
	res.DurationMs = float64(now().Sub(start)) / float64(time.Millisecond)

	if res.Recompiles != 0 {
		return fail("rebooted platform recompiled %d sources (want 0; %d disk hits, %d preloaded, %d objects persisted)",
			res.Recompiles, res.DiskHits, stats.Preloaded, persisted)
	}
	if stats.DiskHits+stats.Preloaded == 0 {
		return fail("rebooted platform never touched the durable store (%d objects persisted)", persisted)
	}
	// Near-warm bound: 2× the pre-restart warm median, with a small
	// absolute floor so sub-millisecond medians don't flake the ratio.
	bound := 2 * res.PreRestartP50Ms
	if floor := res.PreRestartP50Ms + 25; floor > bound {
		bound = floor
	}
	if res.PostRestartP50Ms > bound {
		return fail("post-restart p50 %.1fms exceeds near-warm bound %.1fms (pre-restart warm p50 %.1fms, cold p50 %.1fms)",
			res.PostRestartP50Ms, bound, res.PreRestartP50Ms, res.ColdP50Ms)
	}
	return res, nil
}

// registerClients creates n authenticated accounts.
func registerClients(base string, hc *http.Client, prefix string, n int) ([]*client, error) {
	out := make([]*client, n)
	for i := range out {
		c, err := register(base, hc, fmt.Sprintf("%s-%04d", prefix, i))
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// submitWave fires client i's source i after its seeded jitter, retrying
// transient failures until the deadline, and returns the per-submitter
// latencies (the whole retry span, as the student experienced it).
func submitWave(clients []*client, sources []string, seed int64, deadline time.Time) ([]time.Duration, error) {
	offsets := jitters(seed, len(clients), 25*time.Millisecond)
	latencies := make([]time.Duration, len(clients))
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			time.Sleep(offsets[i])
			t0 := now()
			for {
				status, code, _, err := c.do("POST", "/api/v1/labs/"+benchLab+"/submit",
					map[string]string{"source": sources[i]})
				switch {
				case err != nil:
					errs[i] = err
				case status == http.StatusOK:
					latencies[i] = now().Sub(t0)
					errs[i] = nil
					return
				default:
					errs[i] = fmt.Errorf("status %d code %q", status, code)
				}
				if now().After(deadline) {
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
		}(i, c)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("submitter %d never landed: %v", i, err)
		}
	}
	return latencies, nil
}

// p50ms reads the median from raw durations, in milliseconds.
func p50ms(latencies []time.Duration) float64 {
	ms := make([]float64, len(latencies))
	for i, d := range latencies {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	return metrics.Quantile(ms, 0.50)
}
