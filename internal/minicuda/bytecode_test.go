package minicuda

import (
	"errors"
	"reflect"
	"testing"
	"unsafe"

	"webgpu/internal/gpusim"
)

const bcTestVecAdd = `
__global__ void vecAdd(int *out, int *a, int *b, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) { out[i] = a[i] + b[i]; }
}`

// TestBytecodeArtifactMetadata checks the artifact accessors the program
// cache and worker tracing rely on.
func TestBytecodeArtifactMetadata(t *testing.T) {
	prog, err := Compile(bcTestVecAdd, DialectCUDA)
	if err != nil {
		t.Fatal(err)
	}
	if prog.bytecode() == nil {
		t.Fatal("vecAdd should lower to bytecode")
	}
	n := prog.InstructionCount()
	if n <= 0 {
		t.Fatalf("InstructionCount = %d, want > 0", n)
	}
	if got, want := prog.BytecodeBytes(), n*int(unsafe.Sizeof(instr{})); got != want {
		t.Fatalf("BytecodeBytes = %d, want %d", got, want)
	}
	if k := prog.ArtifactKind(); k != "bytecode-warp" && k != "ast" {
		t.Fatalf("ArtifactKind = %q", k)
	}
}

// TestBytecodeNoBarriersMatchesSema: the warp launch path derives
// NoBarriers from a static scan of the lowered code; it must agree with the
// semantic pass's answer so the simulator picks the same execution path
// under both engines.
func TestBytecodeNoBarriersMatchesSema(t *testing.T) {
	for _, src := range []string{
		bcTestVecAdd,
		`__global__ void k(float *s) {
  __shared__ float tile[32];
  tile[threadIdx.x] = s[threadIdx.x];
  __syncthreads();
  s[threadIdx.x] = tile[31 - threadIdx.x];
}`,
	} {
		prog, err := Compile(src, DialectCUDA)
		if err != nil {
			t.Fatal(err)
		}
		bc := prog.bytecode()
		if bc == nil {
			t.Fatal("program should lower to bytecode")
		}
		if bc.usesBarrier != prog.usesBarrier {
			t.Fatalf("usesBarrier: bytecode %v, sema %v\n%s",
				bc.usesBarrier, prog.usesBarrier, src)
		}
	}
}

// TestVMTrapSentinels: the bytecode (warp) engine must return the
// interpreter's sentinel errors (not lookalikes) so errors.Is-based
// handling in the worker keeps working.
func TestVMTrapSentinels(t *testing.T) {
	cases := []struct {
		name     string
		src      string
		maxSteps int64
		sentinel error
	}{
		{"div-by-zero", `__global__ void k(int *o, int n) { o[0] = 1 / n; }`, 0, ErrDivByZero},
		{"step-limit", `__global__ void k(int *o, int n) { while (1) { n++; } o[0] = n; }`, 500, ErrStepLimit},
		{"call-depth", `__device__ int r(int n) { return r(n + 1); }
__global__ void k(int *o, int n) { o[0] = r(n); }`, 0, ErrCallDepth},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog, err := Compile(c.src, DialectCUDA)
			if err != nil {
				t.Fatal(err)
			}
			if prog.bytecode() == nil {
				t.Fatal("kernel should lower to bytecode")
			}
			var msgs [2]string
			for i, eng := range []Engine{EngineTree, EngineWarp} {
				dev := gpusim.NewDefaultDevice()
				o, _ := dev.Malloc(4)
				_, lerr := prog.Launch(dev, "k",
					LaunchOpts{Grid: gpusim.D1(1), Block: gpusim.D1(1),
						MaxSteps: c.maxSteps, Engine: eng},
					IntPtr(o), Int(0))
				if lerr == nil {
					t.Fatalf("engine %d: expected an error", i)
				}
				if !errors.Is(lerr, c.sentinel) {
					t.Fatalf("engine %d: error %v is not %v", i, lerr, c.sentinel)
				}
				msgs[i] = lerr.Error()
			}
			if msgs[0] != msgs[1] {
				t.Fatalf("trap message divergence:\ntree: %q\nwarp: %q", msgs[0], msgs[1])
			}
		})
	}
}

// TestEngineOverride: forcing either engine through LaunchOpts must work
// regardless of the process default and produce the same output, stats
// and error as the tree walker under the same SchedSeed. The seeded case
// pins the fallback rule — a launch the warp engine cannot serve runs on
// the tree walker — with a kernel whose last writer per block depends on
// the serial thread order the seed picks.
func TestEngineOverride(t *testing.T) {
	prog, err := Compile(bcTestVecAdd+`
__global__ void lastWriter(int *out, int *a, int *b, int n) {
  out[blockIdx.x] = threadIdx.x;
}`, DialectCUDA)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	type run struct {
		out   []int32
		stats gpusim.LaunchStats
		err   string
	}
	launch := func(kernel string, eng Engine, seed uint64) run {
		dev := gpusim.NewDefaultDevice()
		out, _ := dev.Malloc(n * 4)
		av := make([]int32, n)
		bv := make([]int32, n)
		for i := range av {
			av[i] = int32(i * 3)
			bv[i] = int32(100 - i)
		}
		a, err := dev.MallocInt32(n, av)
		if err != nil {
			t.Fatal(err)
		}
		b, err := dev.MallocInt32(n, bv)
		if err != nil {
			t.Fatal(err)
		}
		var r run
		stats, lerr := prog.Launch(dev, kernel,
			LaunchOpts{Grid: gpusim.D1(2), Block: gpusim.D1(32), Engine: eng, SchedSeed: seed},
			IntPtr(out), IntPtr(a), IntPtr(b), Int(n))
		if lerr != nil {
			r.err = lerr.Error()
		}
		if stats != nil {
			r.stats = *stats
			r.stats.WallTime = 0
		}
		r.out, _ = dev.ReadInt32(out, n)
		return r
	}
	for _, c := range []struct {
		kernel string
		eng    Engine
		seed   uint64
	}{{"vecAdd", EngineWarp, 0}, {"vecAdd", EngineAuto, 0}, {"lastWriter", EngineWarp, 0x5eed}} {
		want := launch(c.kernel, EngineTree, c.seed)
		if want.err != "" {
			t.Fatalf("%s on tree, seed %#x: %s", c.kernel, c.seed, want.err)
		}
		got := launch(c.kernel, c.eng, c.seed)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s on engine %d, seed %#x: got %+v, want tree's %+v",
				c.kernel, c.eng, c.seed, got, want)
		}
	}
}
