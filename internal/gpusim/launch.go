package gpusim

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// KernelFunc executes one thread of a kernel. Implementations must perform
// all device-memory traffic through the ThreadCtx accessors so that the
// cost model observes it. Returning a non-nil error aborts the launch with
// that error, mimicking a device-side trap.
type KernelFunc func(tc *ThreadCtx) error

// LaunchConfig describes a kernel launch: the grid of blocks, the block of
// threads, and the dynamic shared-memory size in bytes.
type LaunchConfig struct {
	Grid           Dim3
	Block          Dim3
	SharedMemBytes int

	// NoBarriers declares that the kernel never calls SyncThreads, letting
	// the simulator run a block's threads sequentially on one goroutine
	// instead of one goroutine per thread — a large speedup for the
	// map-style kernels most labs start with. A SyncThreads call under
	// this flag is reported as an error. The minicuda launcher sets it
	// automatically from the compiled program.
	NoBarriers bool

	// SchedSeed permutes the order in which a serial (NoBarriers) block
	// executes its threads. Zero keeps the natural flattened-index order.
	// Any thread ordering is a legal schedule for independent threads, so
	// a kernel whose output changes with the seed has an order-dependent
	// bug (a data race); the kernelcheck differential guard uses this to
	// confirm statically-reported races at runtime. Results, traps, and
	// cost accounting are unaffected for race-free kernels.
	SchedSeed uint64
}

// Validate checks the configuration against the device limits.
func (d *Device) validateLaunch(cfg LaunchConfig) error {
	p := d.props
	b, g := cfg.Block, cfg.Grid
	switch {
	case b.X <= 0 || b.Y <= 0 || b.Z <= 0:
		return fmt.Errorf("%w: non-positive block dimension %v", ErrInvalidLaunch, b)
	case g.X <= 0 || g.Y <= 0 || g.Z <= 0:
		return fmt.Errorf("%w: non-positive grid dimension %v", ErrInvalidLaunch, g)
	case b.Count() > p.MaxThreadsPerBlock:
		return fmt.Errorf("%w: %d threads per block exceeds limit %d",
			ErrInvalidLaunch, b.Count(), p.MaxThreadsPerBlock)
	case b.X > p.MaxBlockDim.X || b.Y > p.MaxBlockDim.Y || b.Z > p.MaxBlockDim.Z:
		return fmt.Errorf("%w: block %v exceeds limit %v", ErrInvalidLaunch, b, p.MaxBlockDim)
	case g.X > p.MaxGridDim.X || g.Y > p.MaxGridDim.Y || g.Z > p.MaxGridDim.Z:
		return fmt.Errorf("%w: grid %v exceeds limit %v", ErrInvalidLaunch, g, p.MaxGridDim)
	case cfg.SharedMemBytes < 0 || cfg.SharedMemBytes > p.SharedMemPerBlock:
		return fmt.Errorf("%w: %d bytes of shared memory exceeds limit %d",
			ErrInvalidLaunch, cfg.SharedMemBytes, p.SharedMemPerBlock)
	}
	return nil
}

// blockCtx holds the per-block state shared by the threads of one block:
// the shared-memory arena, the cyclic barrier, and the warp-level cost
// accounting tables.
type blockCtx struct {
	dev      *Device
	blockIdx Dim3
	cfg      LaunchConfig
	shared   []byte

	mu           sync.Mutex
	cond         *sync.Cond
	participants int // threads that have not yet exited
	arrived      int // threads waiting at the current barrier
	generation   int
	divergence   bool
	serial       bool

	aborted  *atomic.Bool
	abortErr *onceErr
}

// onceErr records the first error reported by any thread of a launch.
type onceErr struct {
	mu  sync.Mutex
	err error
}

func (o *onceErr) set(err error) {
	if err == nil {
		return
	}
	o.mu.Lock()
	if o.err == nil {
		o.err = err
	}
	o.mu.Unlock()
}

func (o *onceErr) get() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.err
}

func newBlockCtx(dev *Device, blockIdx Dim3, cfg LaunchConfig, shared int, aborted *atomic.Bool, abortErr *onceErr) *blockCtx {
	bc := &blockCtx{
		dev:          dev,
		blockIdx:     blockIdx,
		cfg:          cfg,
		shared:       make([]byte, shared),
		participants: cfg.Block.Count(),
		aborted:      aborted,
		abortErr:     abortErr,
	}
	bc.cond = sync.NewCond(&bc.mu)
	return bc
}

// barrier implements __syncthreads. All live threads of the block must
// arrive before any proceeds. A barrier generation that completes with
// fewer arrivals than the block's launched thread count is barrier
// divergence, which every thread released by it and the launch report as
// an error: this is the class of bug (divergent __syncthreads) the
// course's tiled labs teach students to avoid. Counting against the
// launched threads, not the live ones, makes the verdict independent of
// whether the missing threads exited before or after the others arrived.
func (bc *blockCtx) barrier() error {
	if bc.serial {
		return fmt.Errorf("%w: SyncThreads called in a launch declared NoBarriers",
			ErrInvalidLaunch)
	}
	if bc.aborted.Load() {
		return bc.abortErr.get()
	}
	bc.mu.Lock()
	gen := bc.generation
	bc.arrived++
	if bc.arrived == bc.participants {
		diverged := bc.release()
		bc.mu.Unlock()
		if diverged {
			return ErrBarrierDivergence
		}
		return nil
	}
	for gen == bc.generation && !bc.aborted.Load() {
		bc.cond.Wait()
	}
	diverged := bc.divergence
	bc.mu.Unlock()
	if bc.aborted.Load() {
		return bc.abortErr.get()
	}
	if diverged {
		return ErrBarrierDivergence
	}
	return nil
}

// threadExit removes a finished thread from the barrier's participant set.
func (bc *blockCtx) threadExit() {
	if bc.serial {
		// Serial blocks run on one goroutine and reject barriers, so there
		// is nothing to wake and no lock to take.
		bc.participants--
		return
	}
	bc.mu.Lock()
	bc.participants--
	if bc.arrived > 0 && bc.arrived == bc.participants {
		// The threads blocked at the barrier wait on no one else.
		bc.release()
	}
	bc.mu.Unlock()
}

// release completes the current barrier generation and wakes its waiters.
// It flags divergence when fewer threads arrived than the block launched,
// and reports whether it did. bc.mu must be held.
func (bc *blockCtx) release() bool {
	if bc.participants < bc.cfg.Block.Count() {
		bc.divergence = true
	}
	bc.arrived = 0
	bc.generation++
	bc.cond.Broadcast()
	return bc.divergence
}

func (bc *blockCtx) abortWake() {
	bc.mu.Lock()
	bc.cond.Broadcast()
	bc.mu.Unlock()
}

// ThreadCtx is the execution context of a single simulated GPU thread. It
// carries the CUDA builtin indices and provides the memory, barrier, and
// atomic operations a kernel may perform.
type ThreadCtx struct {
	Dev       *Device
	ThreadIdx Dim3
	BlockIdx  Dim3
	BlockDim  Dim3
	GridDim   Dim3

	block   *blockCtx
	warp    int
	stats   threadStats
	gEvents []gEvent // per-thread global-access log, indexed by access ordinal
	sEvents []sEvent // per-thread shared-access log

	cache *allocCache
}

// allocCacheSize is the number of allocations an access cache holds; course
// kernels touch at most a handful of distinct buffers.
const allocCacheSize = 4

// allocCache is a small direct cache of allocation backing stores: kernels
// overwhelmingly hammer the same few buffers, so remembering them skips the
// device mutex and map lookup on the hot path. alloc ids are never reused
// within a device, so a hit cannot alias a freed buffer. On the serial
// (barrier-free) block path one cache is shared by the whole block; on the
// concurrent path each thread owns one.
type allocCache struct {
	ids  [allocCacheSize]uint64
	data [allocCacheSize][]byte
	next int
}

// blockScratch holds the working arrays of one block run, recycled across
// blocks and launches through scratchPool: the ThreadCtx backing array
// dominates a launch's allocation volume, and blocks are short-lived, so
// reuse keeps the GC off the hot path. State-carrying arrays (ctxs,
// backing, caches) are cleared before reuse — caches in particular must
// not survive, since allocation ids are only unique within one device.
// The event slabs are reused as-is: carved logs start at length zero, so
// stale events are never observed.
type blockScratch struct {
	ctxs    []*ThreadCtx
	backing []ThreadCtx
	caches  []allocCache
	slabG   []gEvent
	slabS   []sEvent
}

var scratchPool = sync.Pool{New: func() any { return new(blockScratch) }}

// threadStats counts the work performed by one thread.
type threadStats struct {
	alu      int64
	special  int64
	branches int64
	barriers int64
	atomics  int64
	gLoads   int64
	gStores  int64
	sAccess  int64
	cLoads   int64
}

// FlatThreadIdx returns the linear index of the thread within its block.
func (tc *ThreadCtx) FlatThreadIdx() int {
	b := tc.BlockDim
	return tc.ThreadIdx.Z*b.Y*b.X + tc.ThreadIdx.Y*b.X + tc.ThreadIdx.X
}

// FlatBlockIdx returns the linear index of the block within the grid.
func (tc *ThreadCtx) FlatBlockIdx() int {
	g := tc.GridDim
	return tc.BlockIdx.Z*g.Y*g.X + tc.BlockIdx.Y*g.X + tc.BlockIdx.X
}

// GlobalThreadID returns the grid-wide linear thread id.
func (tc *ThreadCtx) GlobalThreadID() int {
	return tc.FlatBlockIdx()*tc.BlockDim.Count() + tc.FlatThreadIdx()
}

// SyncThreads implements __syncthreads.
func (tc *ThreadCtx) SyncThreads() error {
	tc.stats.barriers++
	return tc.block.barrier()
}

// Shared returns the block's shared-memory arena (static + dynamic).
func (tc *ThreadCtx) Shared() []byte { return tc.block.shared }

// CountALU charges n single-cycle arithmetic operations to the thread.
func (tc *ThreadCtx) CountALU(n int) { tc.stats.alu += int64(n) }

// CountSpecial charges n special-function-unit operations (sqrt, exp, ...).
func (tc *ThreadCtx) CountSpecial(n int) { tc.stats.special += int64(n) }

// CountBranch charges a branch instruction.
func (tc *ThreadCtx) CountBranch() { tc.stats.branches++ }

// CountBranches charges n branch instructions at once; a warp-level
// executor batches the per-lane branch charges of a whole launch into one
// call (only the block-level sum is observable).
func (tc *ThreadCtx) CountBranches(n int) { tc.stats.branches += int64(n) }

// CountBarriers charges n barrier arrivals at once (the warp executor's
// batched equivalent of the SyncThreads-internal charge).
func (tc *ThreadCtx) CountBarriers(n int) { tc.stats.barriers += int64(n) }

// Aborted reports whether the launch has been aborted by another thread's
// error; long-running native kernels should poll it inside loops.
func (tc *ThreadCtx) Aborted() bool { return tc.block.aborted.Load() }

// --- Global memory access ------------------------------------------------

func (tc *ThreadCtx) globalAccess(p Ptr, size int, store bool) ([]byte, error) {
	var data []byte
	ac := tc.cache
	if ac != nil {
		for i, id := range ac.ids {
			if id == p.alloc {
				data = ac.data[i]
				break
			}
		}
	}
	if data == nil {
		a, err := tc.Dev.lookup(p)
		if err != nil {
			return nil, err
		}
		data = a.data
		if ac != nil {
			slot := ac.next
			ac.ids[slot] = p.alloc
			ac.data[slot] = data
			ac.next = (slot + 1) % allocCacheSize
		}
	}
	if p.Off < 0 || size < 0 || p.Off+size > len(data) {
		return nil, fmt.Errorf("%w: offset %d size %d in allocation of %d bytes",
			ErrIllegalAccess, p.Off, size, len(data))
	}
	v := data[p.Off : p.Off+size]
	if store {
		tc.stats.gStores++
	} else {
		tc.stats.gLoads++
	}
	// Warp-synchronous coalescing model: the k-th global access of every
	// thread in a warp is assumed to issue together; the per-thread log is
	// aggregated at block end into distinct 128-byte segments.
	tc.gEvents = append(tc.gEvents, gEvent{
		alloc: p.alloc,
		segLo: int32(p.Off / segmentBytes),
		segHi: int32((p.Off + size - 1) / segmentBytes),
	})
	return v, nil
}

// LoadFloat32 loads a float32 at element index idx (in elements, not bytes).
func (tc *ThreadCtx) LoadFloat32(p Ptr, idx int) (float32, error) {
	v, err := tc.globalAccess(p.Offset(idx*4), 4, false)
	if err != nil {
		return 0, err
	}
	return math.Float32frombits(leU32(v)), nil
}

// StoreFloat32 stores a float32 at element index idx.
func (tc *ThreadCtx) StoreFloat32(p Ptr, idx int, val float32) error {
	v, err := tc.globalAccess(p.Offset(idx*4), 4, true)
	if err != nil {
		return err
	}
	putLeU32(v, math.Float32bits(val))
	return nil
}

// LoadInt32 loads an int32 at element index idx.
func (tc *ThreadCtx) LoadInt32(p Ptr, idx int) (int32, error) {
	v, err := tc.globalAccess(p.Offset(idx*4), 4, false)
	if err != nil {
		return 0, err
	}
	return int32(leU32(v)), nil
}

// StoreInt32 stores an int32 at element index idx.
func (tc *ThreadCtx) StoreInt32(p Ptr, idx int, val int32) error {
	v, err := tc.globalAccess(p.Offset(idx*4), 4, true)
	if err != nil {
		return err
	}
	putLeU32(v, uint32(val))
	return nil
}

// LoadByte loads a byte at byte index idx.
func (tc *ThreadCtx) LoadByte(p Ptr, idx int) (byte, error) {
	v, err := tc.globalAccess(p.Offset(idx), 1, false)
	if err != nil {
		return 0, err
	}
	return v[0], nil
}

// StoreByte stores a byte at byte index idx.
func (tc *ThreadCtx) StoreByte(p Ptr, idx int, val byte) error {
	v, err := tc.globalAccess(p.Offset(idx), 1, true)
	if err != nil {
		return err
	}
	v[0] = val
	return nil
}

// --- Shared memory access ------------------------------------------------

func (tc *ThreadCtx) sharedCheck(off, size int) error {
	if off < 0 || off+size > len(tc.block.shared) {
		return fmt.Errorf("%w: shared memory access [%d,%d) of %d bytes",
			ErrIllegalAccess, off, off+size, len(tc.block.shared))
	}
	tc.stats.sAccess++
	tc.sEvents = append(tc.sEvents, sEvent{word: int32(off / bankWidthBytes)})
	return nil
}

// SharedLoadFloat32 loads a float32 from shared memory at element index idx.
func (tc *ThreadCtx) SharedLoadFloat32(idx int) (float32, error) {
	if err := tc.sharedCheck(idx*4, 4); err != nil {
		return 0, err
	}
	return math.Float32frombits(leU32(tc.block.shared[idx*4:])), nil
}

// SharedStoreFloat32 stores a float32 into shared memory at element idx.
func (tc *ThreadCtx) SharedStoreFloat32(idx int, val float32) error {
	if err := tc.sharedCheck(idx*4, 4); err != nil {
		return err
	}
	putLeU32(tc.block.shared[idx*4:], math.Float32bits(val))
	return nil
}

// SharedLoadInt32 loads an int32 from shared memory at element index idx.
func (tc *ThreadCtx) SharedLoadInt32(idx int) (int32, error) {
	if err := tc.sharedCheck(idx*4, 4); err != nil {
		return 0, err
	}
	return int32(leU32(tc.block.shared[idx*4:])), nil
}

// SharedStoreInt32 stores an int32 into shared memory at element idx.
func (tc *ThreadCtx) SharedStoreInt32(idx int, val int32) error {
	if err := tc.sharedCheck(idx*4, 4); err != nil {
		return err
	}
	putLeU32(tc.block.shared[idx*4:], uint32(val))
	return nil
}

// --- Constant memory access ----------------------------------------------

// ConstLoadFloat32 loads a float32 from constant memory at element idx.
func (tc *ThreadCtx) ConstLoadFloat32(idx int) (float32, error) {
	cm := tc.Dev.constMem
	if idx < 0 || idx*4+4 > len(cm) {
		return 0, fmt.Errorf("%w: constant memory read at element %d", ErrIllegalAccess, idx)
	}
	tc.stats.cLoads++
	return math.Float32frombits(leU32(cm[idx*4:])), nil
}

// ConstLoadInt32 loads an int32 from constant memory at element idx.
func (tc *ThreadCtx) ConstLoadInt32(idx int) (int32, error) {
	cm := tc.Dev.constMem
	if idx < 0 || idx*4+4 > len(cm) {
		return 0, fmt.Errorf("%w: constant memory read at element %d", ErrIllegalAccess, idx)
	}
	tc.stats.cLoads++
	return int32(leU32(cm[idx*4:])), nil
}

// --- Launch engine ---------------------------------------------------------

// LaunchStats reports what a kernel launch did and the simulated time it
// took under the cost model.
type LaunchStats struct {
	Name         string
	Grid         Dim3
	Block        Dim3
	Blocks       int
	Threads      int
	ALUOps       int64
	SpecialOps   int64
	Branches     int64
	Barriers     int64
	Atomics      int64
	GlobalLoads  int64
	GlobalStores int64
	GlobalTx     int64 // distinct 128B memory transactions after coalescing
	SharedOps    int64
	SharedTx     int64 // bank-serialized shared accesses
	ConstLoads   int64
	SimCycles    int64
	SimTime      time.Duration
	WallTime     time.Duration
	Divergence   bool
}

// Launch executes kernel k over the configured grid and blocks synchronously
// (like a launch followed by cudaDeviceSynchronize) and returns statistics.
// Blocks are scheduled over the device's SMs; threads within a block run
// concurrently and may synchronize with SyncThreads.
func (d *Device) Launch(name string, cfg LaunchConfig, k KernelFunc) (*LaunchStats, error) {
	var aborted atomic.Bool
	abortErr := &onceErr{}
	return d.launchRun(name, cfg, &aborted, abortErr, func(bc *blockCtx) blockResult {
		return d.runBlock(bc, cfg, k, &aborted, abortErr)
	})
}

// launchRun is the launch scheduler shared by the per-thread and per-warp
// entry points: it validates the configuration, drains the grid's blocks
// over the simulated SMs, and folds block results into launch statistics.
func (d *Device) launchRun(name string, cfg LaunchConfig, aborted *atomic.Bool, abortErr *onceErr, runBlock func(*blockCtx) blockResult) (*LaunchStats, error) {
	if err := d.validateLaunch(cfg); err != nil {
		return nil, err
	}
	d.mu.Lock()
	closed := d.closed
	d.mu.Unlock()
	if closed {
		return nil, ErrDeviceClosed
	}

	start := time.Now()
	numBlocks := cfg.Grid.Count()
	threadsPerBlock := cfg.Block.Count()

	stats := &LaunchStats{
		Name:    name,
		Grid:    cfg.Grid,
		Block:   cfg.Block,
		Blocks:  numBlocks,
		Threads: numBlocks * threadsPerBlock,
	}

	// SM scheduler: each simulated SM is a goroutine draining a block queue.
	sms := d.props.MultiprocessorCount
	if sms <= 0 {
		sms = 1
	}
	// Don't oversubscribe the host: the simulated-time accounting is
	// independent of how many blocks run concurrently on the host.
	hostPar := sms
	if n := runtime.GOMAXPROCS(0); hostPar > 2*n {
		hostPar = 2 * n
	}

	blockCh := make(chan int, numBlocks)
	for b := 0; b < numBlocks; b++ {
		blockCh <- b
	}
	close(blockCh)

	smCycles := make([]int64, sms)
	var statsMu sync.Mutex
	var wg sync.WaitGroup

	for sm := 0; sm < hostPar; sm++ {
		wg.Add(1)
		go func(smHome int) {
			defer wg.Done()
			for flat := range blockCh {
				if aborted.Load() {
					continue
				}
				blockIdx := unflatten(flat, cfg.Grid)
				bc := newBlockCtx(d, blockIdx, cfg, cfg.SharedMemBytes, aborted, abortErr)
				bs := runBlock(bc)
				statsMu.Lock()
				// Round-robin blocks over the *simulated* SM count so the
				// simulated time reflects the device, not the host.
				smCycles[flat%sms] += bs.cycles
				stats.ALUOps += bs.alu
				stats.SpecialOps += bs.special
				stats.Branches += bs.branches
				stats.Barriers += bs.barriers
				stats.Atomics += bs.atomics
				stats.GlobalLoads += bs.gLoads
				stats.GlobalStores += bs.gStores
				stats.GlobalTx += bs.gTx
				stats.SharedOps += bs.sAccess
				stats.SharedTx += bs.sTx
				stats.ConstLoads += bs.cLoads
				if bs.divergence {
					stats.Divergence = true
				}
				statsMu.Unlock()
			}
		}(sm)
	}
	wg.Wait()

	var maxSM int64
	for _, c := range smCycles {
		if c > maxSM {
			maxSM = c
		}
	}
	stats.SimCycles = maxSM + launchOverheadCycles
	khz := d.props.ClockRateKHz
	if khz <= 0 {
		khz = 1000000
	}
	stats.SimTime = time.Duration(float64(stats.SimCycles) / float64(khz) * 1e6 * float64(time.Nanosecond))
	stats.WallTime = time.Since(start)
	d.recordLaunch(stats)

	if err := abortErr.get(); err != nil {
		return stats, err
	}
	if stats.Divergence {
		return stats, ErrBarrierDivergence
	}
	return stats, nil
}

// blockResult aggregates the work of one block.
type blockResult struct {
	alu, special, branches, barriers, atomics int64
	gLoads, gStores, gTx                      int64
	sAccess, sTx, cLoads                      int64
	cycles                                    int64
	divergence                                bool
}

func (d *Device) runBlock(bc *blockCtx, cfg LaunchConfig, k KernelFunc, aborted *atomic.Bool, abortErr *onceErr) blockResult {
	threads := cfg.Block.Count()
	warpSize := d.props.WarpSize
	if warpSize <= 0 {
		warpSize = 32
	}
	bc.serial = cfg.NoBarriers

	scr := scratchPool.Get().(*blockScratch)
	if cap(scr.ctxs) < threads {
		scr.ctxs = make([]*ThreadCtx, threads)
	}
	if cap(scr.backing) < threads {
		scr.backing = make([]ThreadCtx, threads)
	}
	ctxs := scr.ctxs[:threads]
	backing := scr.backing[:threads]
	clear(ctxs)
	clear(backing)
	runThread := func(tc *ThreadCtx) {
		defer bc.threadExit()
		defer func() {
			if r := recover(); r != nil {
				abortErr.set(fmt.Errorf("%w: %v", ErrIllegalAccess, r))
				aborted.Store(true)
				bc.abortWake()
			}
		}()
		if err := k(tc); err != nil {
			abortErr.set(err)
			aborted.Store(true)
			bc.abortWake()
		}
	}
	if cfg.NoBarriers {
		// Barrier-free kernels: run the block's threads sequentially on
		// this goroutine. Results are identical because threads cannot
		// interact except through atomics, which remain atomic.
		hintG, hintS := 0, 0
		var slabG []gEvent // event logs for threads 1..n-1, carved per thread
		var slabS []sEvent
		// Pooled slabs may each be handed out at most once per block, or a
		// second draw would alias carves already in use by earlier threads.
		slabGBuf, slabSBuf := scr.slabG, scr.slabS
		var ac allocCache // one goroutine runs the whole block: share the cache
		var order []int
		if cfg.SchedSeed != 0 {
			order = schedOrder(threads, cfg.SchedSeed, uint64(bc.blockIdx.X)|uint64(bc.blockIdx.Y)<<21|uint64(bc.blockIdx.Z)<<42)
		}
		for i := 0; i < threads; i++ {
			if aborted.Load() {
				break
			}
			t := i
			if order != nil {
				t = order[i]
			}
			// backing[t] is freshly zeroed; set only the non-zero fields.
			tc := &backing[t]
			tc.Dev = d
			tc.ThreadIdx = unflatten(t, cfg.Block)
			tc.BlockIdx = bc.blockIdx
			tc.BlockDim = cfg.Block
			tc.GridDim = cfg.Grid
			tc.block = bc
			tc.warp = t / warpSize
			tc.cache = &ac
			// Threads in a block usually perform the same accesses, so the
			// first thread's event counts size the logs of the rest, carved
			// out of one block-wide slab. A thread that overflows its carve
			// reallocates on append, leaving the slab untouched.
			if hintG > 0 {
				if len(slabG) < hintG {
					need := hintG * (threads - i)
					if cap(slabGBuf) >= need {
						slabG = slabGBuf[:need]
					} else {
						slabG = make([]gEvent, need)
						scr.slabG = slabG // keep the fresh slab for reuse
					}
					slabGBuf = nil
				}
				tc.gEvents = slabG[0:0:hintG]
				slabG = slabG[hintG:]
			}
			if hintS > 0 {
				if len(slabS) < hintS {
					need := hintS * (threads - i)
					if cap(slabSBuf) >= need {
						slabS = slabSBuf[:need]
					} else {
						slabS = make([]sEvent, need)
						scr.slabS = slabS
					}
					slabSBuf = nil
				}
				tc.sEvents = slabS[0:0:hintS]
				slabS = slabS[hintS:]
			}
			ctxs[t] = tc
			runThread(tc)
			if i == 0 {
				hintG, hintS = len(tc.gEvents), len(tc.sEvents)
			}
		}
		// Unstarted threads contribute empty stats.
		for t := range ctxs {
			if ctxs[t] == nil {
				tc := &backing[t]
				tc.Dev = d
				tc.block = bc
				tc.warp = t / warpSize
				ctxs[t] = tc
			}
		}
		res := d.collectBlock(bc, ctxs, warpSize)
		scratchPool.Put(scr)
		return res
	}

	var wg sync.WaitGroup
	if cap(scr.caches) < threads {
		scr.caches = make([]allocCache, threads)
	}
	caches := scr.caches[:threads]
	clear(caches)
	for t := 0; t < threads; t++ {
		tc := &backing[t]
		tc.Dev = d
		tc.ThreadIdx = unflatten(t, cfg.Block)
		tc.BlockIdx = bc.blockIdx
		tc.BlockDim = cfg.Block
		tc.GridDim = cfg.Grid
		tc.block = bc
		tc.warp = t / warpSize
		tc.cache = &caches[t]
		ctxs[t] = tc
		wg.Add(1)
		go func(tc *ThreadCtx) {
			defer wg.Done()
			runThread(tc)
		}(tc)
	}
	wg.Wait()
	res := d.collectBlock(bc, ctxs, warpSize)
	scratchPool.Put(scr)
	return res
}

// collectBlock aggregates per-thread statistics into the block result.
func (d *Device) collectBlock(bc *blockCtx, ctxs []*ThreadCtx, warpSize int) blockResult {

	var res blockResult
	for _, tc := range ctxs {
		res.alu += tc.stats.alu
		res.special += tc.stats.special
		res.branches += tc.stats.branches
		res.barriers += tc.stats.barriers
		res.atomics += tc.stats.atomics
		res.gLoads += tc.stats.gLoads
		res.gStores += tc.stats.gStores
		res.sAccess += tc.stats.sAccess
		res.cLoads += tc.stats.cLoads
	}
	res.gTx, res.sTx = aggregateCost(ctxs, warpSize)
	res.divergence = bc.divergence
	res.cycles = blockCycles(d.props, res)
	return res
}

// schedOrder derives a deterministic permutation of [0,n) from the launch
// seed and the block coordinate, via splitmix64-keyed Fisher-Yates. Each
// block gets a different shuffle so inter-block patterns cannot mask an
// intra-block race.
func schedOrder(n int, seed, blockKey uint64) []int {
	s := seed ^ 0x9e3779b97f4a7c15*(blockKey+1)
	next := func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// unflatten converts a linear index into a Dim3 coordinate within extent e,
// x fastest-varying as in CUDA.
func unflatten(flat int, e Dim3) Dim3 {
	x := flat % e.X
	y := (flat / e.X) % e.Y
	z := flat / (e.X * e.Y)
	return Dim3{X: x, Y: y, Z: z}
}

func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putLeU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}
