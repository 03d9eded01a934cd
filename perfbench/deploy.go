package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"webgpu/internal/labs"
	"webgpu/internal/platform"
)

// maxConns is the benchmark's connection budget: one per core of the
// 2-core machine it is defined on, and what the draft session needs (its
// event stream plus the draft posts).
const maxConns = 2

// platformOptions is the one deployment every workload runs against:
// the v2 broker architecture with the HPP course on two single-GPU
// workers and a fresh artifact store, everything else at its default.
func platformOptions(cacheDir string) platform.Options {
	return platform.Options{
		Arch:          platform.V2,
		Course:        labs.CourseHPP,
		Workers:       2,
		GPUsPerWorker: 1,
		CacheDir:      cacheDir,
	}
}

// deployment is one booted platform behind a real HTTP listener.
type deployment struct {
	p   *platform.Platform
	srv *httptest.Server
	hc  *http.Client // request/response calls, with a timeout
	sse *http.Client // the event stream, bounded by its context instead
}

func boot(cacheDir string) *deployment {
	p := platform.New(platformOptions(cacheDir))
	srv := httptest.NewServer(p.Handler())
	tr := &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns, DisableCompression: true}
	return &deployment{
		p:   p,
		srv: srv,
		hc:  &http.Client{Transport: tr, Timeout: 60 * time.Second},
		sse: &http.Client{Transport: tr},
	}
}

func (d *deployment) register(name string) (*client, error) {
	return register(d.srv.URL, d.hc, name)
}

// close stops the listener and the platform and waits for both.
func (d *deployment) close() {
	d.hc.CloseIdleConnections()
	d.srv.Close()
	d.p.Close()
}

// runDir is the run's private working directory under the checkout's
// build directory; every artifact store of the run lives below it.
func runDir() (string, error) {
	base := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}

// env describes where a run was measured.
type env struct {
	Machine    string `json:"machine"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Seed       int64  `json:"seed"`
}

func currentEnv(seed int64) env {
	return env{
		Machine:    machine(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Seed:       seed,
	}
}

func (e env) String() string {
	return fmt.Sprintf("machine=%q nproc=%d gomaxprocs=%d go=%s seed=%d",
		e.Machine, e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.Seed)
}
