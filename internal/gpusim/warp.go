package gpusim

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Warp-level launch path: a WarpKernelFunc executes a whole warp of
// threads in lockstep from a single goroutine, decoding its program once
// per warp instead of once per thread. The simulator keeps the exact same
// observable model as the per-thread path — every memory access still goes
// through the owning lane's ThreadCtx (so the warp-synchronous coalescing
// model in cost.go sees identical per-thread event logs), and the block
// barrier is the same counter barrier, reached through a non-blocking
// arrive/wait split so a warp whose lanes diverge around a __syncthreads
// can keep executing its other lanes.

// WarpKernelFunc executes one warp of a kernel. Lanes[i] is the ThreadCtx
// of the warp's i-th live thread (ascending flat thread order; the last
// warp of a block may be partial). The function owns lane scheduling: it
// must route every memory access through the owning lane's ThreadCtx, call
// ExitLanes as lanes retire, and use the Sync* methods for barriers.
// Returning a non-nil error aborts the launch.
type WarpKernelFunc func(wc *WarpCtx) error

// WarpCtx is the execution context of one warp: its lane ThreadCtxs plus
// the barrier operations a lockstep executor needs.
type WarpCtx struct {
	Lanes []*ThreadCtx // live lanes, ascending thread order

	block  *blockCtx
	exited int
}

// SyncArrive registers n lanes at the block barrier without blocking. It
// returns the generation token those lanes wait on, or released=true when
// their arrival completed the barrier (every live thread of the block had
// arrived) and execution may continue past it immediately.
func (wc *WarpCtx) SyncArrive(n int) (gen int, released bool, err error) {
	return wc.block.warpArrive(n)
}

// SyncPoll reports whether barrier generation gen has released, returning
// the same error a released waiter would observe (abort or divergence).
func (wc *WarpCtx) SyncPoll(gen int) (bool, error) {
	return wc.block.warpPoll(gen)
}

// SyncWait blocks until barrier generation gen releases; it is the warp
// executor's last resort when every strand of the warp is parked at the
// barrier and progress depends on other warps (or an abort).
func (wc *WarpCtx) SyncWait(gen int) error {
	return wc.block.warpWait(gen)
}

// ExitLanes retires n of the warp's lanes from the block's barrier
// participant set, with the same divergence detection as a per-thread
// exit: lanes exiting while others wait at a barrier flag ErrBarrierDivergence.
func (wc *WarpCtx) ExitLanes(n int) {
	wc.exited += n
	wc.block.threadExitN(n)
}

// exitRemaining retires every lane the kernel did not exit itself — the
// error and panic paths, where the executor unwound without unwinding its
// lane bookkeeping.
func (wc *WarpCtx) exitRemaining() {
	if r := len(wc.Lanes) - wc.exited; r > 0 {
		wc.exited = len(wc.Lanes)
		wc.block.threadExitN(r)
	}
}

// warpArrive is barrier()'s arrival half for n lockstep lanes: it never
// blocks, and like the per-thread barrier the arrival that completes a
// generation short of the block's launched thread count reports
// divergence.
func (bc *blockCtx) warpArrive(n int) (gen int, released bool, err error) {
	if bc.serial {
		return 0, false, fmt.Errorf("%w: SyncThreads called in a launch declared NoBarriers",
			ErrInvalidLaunch)
	}
	if bc.aborted.Load() {
		return 0, false, bc.abortErr.get()
	}
	bc.mu.Lock()
	gen = bc.generation
	bc.arrived += n
	if bc.arrived == bc.participants {
		diverged := bc.release()
		bc.mu.Unlock()
		if diverged {
			return gen, true, ErrBarrierDivergence
		}
		return gen, true, nil
	}
	bc.mu.Unlock()
	return gen, false, nil
}

// warpPoll is the non-blocking half of barrier()'s wait: released waiters
// observe abort first, then divergence, exactly like a woken cond waiter.
func (bc *blockCtx) warpPoll(gen int) (bool, error) {
	bc.mu.Lock()
	released := gen != bc.generation
	diverged := bc.divergence
	bc.mu.Unlock()
	if bc.aborted.Load() {
		return true, bc.abortErr.get()
	}
	if !released {
		return false, nil
	}
	if diverged {
		return true, ErrBarrierDivergence
	}
	return true, nil
}

// warpWait is barrier()'s blocking wait for lanes that already arrived via
// warpArrive.
func (bc *blockCtx) warpWait(gen int) error {
	bc.mu.Lock()
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

// threadExitN retires n threads at once. Equivalent to n threadExit calls:
// the waiters-present check can only complete the barrier on the last
// decrement, because exiting threads are never in the arrived count.
func (bc *blockCtx) threadExitN(n int) {
	if n == 0 {
		return
	}
	if bc.serial {
		bc.participants -= n
		return
	}
	bc.mu.Lock()
	bc.participants -= n
	if bc.arrived > 0 && bc.arrived == bc.participants {
		bc.release()
	}
	bc.mu.Unlock()
}

// LaunchWarp executes kernel wk over the configured grid with warp-level
// granularity: one WarpKernelFunc invocation per warp instead of one
// KernelFunc per thread. Scheduling, cost accounting, abort semantics, and
// returned statistics are identical to Launch.
func (d *Device) LaunchWarp(name string, cfg LaunchConfig, wk WarpKernelFunc) (*LaunchStats, error) {
	var aborted atomic.Bool
	abortErr := &onceErr{}
	return d.launchRun(name, cfg, &aborted, abortErr, func(bc *blockCtx) blockResult {
		return d.runBlockWarp(bc, cfg, wk, &aborted, abortErr)
	})
}

func (d *Device) runBlockWarp(bcx *blockCtx, cfg LaunchConfig, wk WarpKernelFunc, aborted *atomic.Bool, abortErr *onceErr) blockResult {
	threads := cfg.Block.Count()
	warpSize := d.props.WarpSize
	if warpSize <= 0 {
		warpSize = 32
	}
	nWarps := (threads + warpSize - 1) / warpSize
	bcx.serial = cfg.NoBarriers

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
	if cfg.NoBarriers {
		// The serial path carves per-thread event logs out of a shared slab
		// below; a recycled slice from a prior launch could alias the slab
		// region about to be re-carved, so drop everything.
		clear(backing)
	} else {
		// Reset the ThreadCtx backing while keeping each slot's event-log
		// capacity: the concurrent path has no slab carving (warps run in
		// parallel, so there is no first-warp hint to learn), and recycling
		// the per-thread event slices across launches is what keeps the
		// steady-state warp launch allocation-free.
		for i := range backing {
			g, s := backing[i].gEvents[:0], backing[i].sEvents[:0]
			backing[i] = ThreadCtx{}
			backing[i].gEvents, backing[i].sEvents = g, s
		}
	}
	initCtx := func(t int, cache *allocCache) *ThreadCtx {
		tc := &backing[t]
		tc.Dev = d
		tc.ThreadIdx = unflatten(t, cfg.Block)
		tc.BlockIdx = bcx.blockIdx
		tc.BlockDim = cfg.Block
		tc.GridDim = cfg.Grid
		tc.block = bcx
		tc.warp = t / warpSize
		tc.cache = cache
		ctxs[t] = tc
		return tc
	}
	runWarp := func(wc *WarpCtx) {
		defer wc.exitRemaining()
		defer func() {
			if r := recover(); r != nil {
				abortErr.set(fmt.Errorf("%w: %v", ErrIllegalAccess, r))
				aborted.Store(true)
				bcx.abortWake()
			}
		}()
		if err := wk(wc); err != nil {
			abortErr.set(err)
			aborted.Store(true)
			bcx.abortWake()
		}
	}
	if cfg.NoBarriers {
		// Barrier-free kernels: warps run sequentially on this goroutine,
		// sharing one access cache, with the same event-slab carving as the
		// per-thread serial path (hints learned from the first warp).
		hintG, hintS := 0, 0
		var slabG []gEvent
		var slabS []sEvent
		slabGBuf, slabSBuf := scr.slabG, scr.slabS
		var ac allocCache
		for w := 0; w < nWarps; w++ {
			if aborted.Load() {
				break
			}
			lo := w * warpSize
			hi := min(lo+warpSize, threads)
			wc := &WarpCtx{block: bcx}
			for t := lo; t < hi; t++ {
				tc := initCtx(t, &ac)
				if hintG > 0 {
					if len(slabG) < hintG {
						need := hintG * (threads - t)
						if cap(slabGBuf) >= need {
							slabG = slabGBuf[:need]
						} else {
							slabG = make([]gEvent, need)
							scr.slabG = slabG
						}
						slabGBuf = nil
					}
					tc.gEvents = slabG[0:0:hintG]
					slabG = slabG[hintG:]
				}
				if hintS > 0 {
					if len(slabS) < hintS {
						need := hintS * (threads - t)
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
				wc.Lanes = append(wc.Lanes, tc)
			}
			runWarp(wc)
			if w == 0 {
				for _, tc := range wc.Lanes {
					if n := len(tc.gEvents); n > hintG {
						hintG = n
					}
					if n := len(tc.sEvents); n > hintS {
						hintS = n
					}
				}
			}
		}
		for t := range ctxs {
			if ctxs[t] == nil {
				tc := &backing[t]
				tc.Dev = d
				tc.block = bcx
				tc.warp = t / warpSize
				ctxs[t] = tc
			}
		}
		res := d.collectBlock(bcx, ctxs, warpSize)
		scratchPool.Put(scr)
		return res
	}

	// Barrier path: one goroutine per warp. Lanes of a warp execute on a
	// single goroutine, so they can share one access cache.
	var wg sync.WaitGroup
	if cap(scr.caches) < nWarps {
		scr.caches = make([]allocCache, nWarps)
	}
	caches := scr.caches[:nWarps]
	clear(caches)
	for w := 0; w < nWarps; w++ {
		lo := w * warpSize
		hi := min(lo+warpSize, threads)
		wc := &WarpCtx{block: bcx}
		for t := lo; t < hi; t++ {
			wc.Lanes = append(wc.Lanes, initCtx(t, &caches[w]))
		}
		wg.Add(1)
		go func(wc *WarpCtx) {
			defer wg.Done()
			runWarp(wc)
		}(wc)
	}
	wg.Wait()
	res := d.collectBlock(bcx, ctxs, warpSize)
	scratchPool.Put(scr)
	return res
}
