package minicuda

// Warp-execution state: struct-of-arrays register banks plus the strand
// bookkeeping the warp engine in warp.go schedules over. One warpState
// services a whole warp (and is pooled across warps of a launch).
//
// Register layout is struct-of-arrays with the warp's live-lane count W as
// the stride: logical register r of a strand whose window base is b lives
// at bank[(b+r)*W + lane]. Two strands can only share a register row when
// their windows coincide (same call depth along the same call chain), and
// strands of one warp always hold disjoint lane sets, so concurrent
// strands never alias a (row, lane) cell.

import (
	"sync"

	"webgpu/internal/gpusim"
)

// strand is a group of lanes executing in lockstep at one program point.
// A warp starts as a single strand holding every lane; a divergent branch
// splits a strand in two, and strands whose control state becomes
// identical again (same pc, function, register windows, and call stack)
// are merged back by the scheduler — reconvergence without an explicit
// post-dominator analysis.
type strand struct {
	pc         int32
	fn         *bcFunc
	bI, bF, bP int32
	depth      int32
	stack      []vmRet

	lanes []int32 // active lanes, ascending
	// Step-budget accounting: lane l has consumed steps+base[l] steps.
	// base is indexed by lane id and only meaningful for active lanes;
	// maxBase caches the maximum over the active set so the per-instruction
	// budget check is a single compare (steps+maxBase > maxSteps).
	steps   int64
	base    []int64
	maxBase int64

	gen int // barrier generation while parked at a __syncthreads
}

// chargeAcc batches the compute-side cost charges of a whole warp. Only
// block-level sums are observable through LaunchStats (collectBlock sums
// per-thread stats), so ALU/special/branch/barrier charges accumulate here
// and flush into one lane's ThreadCtx when the warp finishes. Memory
// traffic is NOT batched: every access goes through the owning lane's
// ThreadCtx so the per-thread event logs driving the coalescing cost model
// stay identical to the per-thread tree walker.
type chargeAcc struct {
	alu, special, branches, barriers int64
}

// warpState holds the SoA register banks, lane metadata, and strand
// scratch for one warp. Reused across warps via warpStatePool.
type warpState struct {
	W      int // lane stride (live lanes in this warp)
	ints   []int64
	floats []float64
	ptrs   []Pointer
	lanes  []*gpusim.ThreadCtx
	dims   [][12]int // per-lane builtin dims: threadIdx, blockIdx, blockDim, gridDim
	acc    chargeAcc

	strands  []*strand // recycle list
	mergeBuf []int32   // mergeLanes scratch
}

var warpStatePool = sync.Pool{New: func() any { return new(warpState) }}

// init prepares the state for one warp's lanes.
func (ws *warpState) init(wc *gpusim.WarpCtx) {
	W := len(wc.Lanes)
	ws.W = W
	ws.lanes = append(ws.lanes[:0], wc.Lanes...)
	if cap(ws.dims) < W {
		ws.dims = make([][12]int, W)
	}
	ws.dims = ws.dims[:W]
	for l, tc := range wc.Lanes {
		d := &ws.dims[l]
		d[0], d[1], d[2] = tc.ThreadIdx.X, tc.ThreadIdx.Y, tc.ThreadIdx.Z
		d[3], d[4], d[5] = tc.BlockIdx.X, tc.BlockIdx.Y, tc.BlockIdx.Z
		d[6], d[7], d[8] = tc.BlockDim.X, tc.BlockDim.Y, tc.BlockDim.Z
		d[9], d[10], d[11] = tc.GridDim.X, tc.GridDim.Y, tc.GridDim.Z
	}
	ws.acc = chargeAcc{}
}

// flush dumps the batched compute charges into one lane's ThreadCtx.
func (ws *warpState) flush() {
	if len(ws.lanes) == 0 {
		return
	}
	tc := ws.lanes[0]
	if ws.acc.alu != 0 {
		tc.CountALU(int(ws.acc.alu))
	}
	if ws.acc.special != 0 {
		tc.CountSpecial(int(ws.acc.special))
	}
	if ws.acc.branches != 0 {
		tc.CountBranches(int(ws.acc.branches))
	}
	if ws.acc.barriers != 0 {
		tc.CountBarriers(int(ws.acc.barriers))
	}
	ws.acc = chargeAcc{}
}

// newStrand returns a zeroed strand with capacity recycled from earlier
// splits, its base slice sized to the warp.
func (ws *warpState) newStrand() *strand {
	var s *strand
	if n := len(ws.strands); n > 0 {
		s = ws.strands[n-1]
		ws.strands = ws.strands[:n-1]
	} else {
		s = new(strand)
	}
	s.pc, s.fn, s.bI, s.bF, s.bP, s.depth = 0, nil, 0, 0, 0, 0
	s.stack = s.stack[:0]
	s.lanes = s.lanes[:0]
	s.steps, s.maxBase = 0, 0
	s.base = grow(s.base, ws.W)
	s.gen = 0
	return s
}

// freeStrand recycles a strand's backing storage.
func (ws *warpState) freeStrand(s *strand) {
	ws.strands = append(ws.strands, s)
}

// recomputeMaxBase refreshes the cached per-lane budget offset maximum.
func (s *strand) recomputeMaxBase() {
	m := int64(0)
	for i, l := range s.lanes {
		if b := s.base[l]; i == 0 || b > m {
			m = b
		}
	}
	s.maxBase = m
}

// sameFrame reports whether two strands are at the same control state and
// can merge: identical pc, function, register windows, depth, and call
// stack contents.
func sameFrame(a, b *strand) bool {
	if a.pc != b.pc || a.fn != b.fn || a.bI != b.bI || a.bF != b.bF ||
		a.bP != b.bP || a.depth != b.depth || len(a.stack) != len(b.stack) {
		return false
	}
	for i := range a.stack {
		if a.stack[i] != b.stack[i] {
			return false
		}
	}
	return true
}

// mergeInto folds o's lanes into s (both at the same control state per
// sameFrame). Per-lane step totals are preserved by rebasing o's lanes
// onto s's shared counter; the lane lists are disjoint and stay ascending.
func (ws *warpState) mergeInto(s, o *strand) {
	for _, l := range o.lanes {
		s.base[l] = o.base[l] + o.steps - s.steps
	}
	s.lanes, ws.mergeBuf = mergeLanes(s.lanes, o.lanes, ws.mergeBuf)
	s.recomputeMaxBase()
	ws.freeStrand(o)
}

// mergeLanes merges two ascending disjoint lane lists in place of a,
// interleaving through scratch so divergent merges do not allocate. It
// returns the merged list and scratch (possibly regrown) for reuse.
func mergeLanes(a, b, scratch []int32) (merged, scr []int32) {
	// Common fast path: all of b after all of a.
	if len(a) == 0 || b[0] > a[len(a)-1] {
		return append(a, b...), scratch
	}
	out := scratch[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return append(a[:0], out...), out
}
