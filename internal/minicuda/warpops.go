package minicuda

// Scalar helpers behind the warp engine's per-lane loops in warp.go: the
// saved-frame record, bank growth, comparison and atomic semantics, and
// builtin-dimension lookup. Each mirrors the tree-walking interpreter in
// interp.go exactly; the differential fuzz test in diff_test.go enforces
// that.

import (
	"math"

	"webgpu/internal/gpusim"
)

// vmRet is one saved frame on a strand's call stack.
type vmRet struct {
	pc         int32
	bI, bF, bP int32
	fn         *bcFunc
	dstBank    uint8
	dstReg     int32 // absolute index in the caller's bank
}

// grow returns s extended (preserving contents) to hold at least need
// elements, doubling to amortize regrowth.
func grow[T any](s []T, need int) []T {
	if need <= len(s) {
		return s
	}
	n := make([]T, 2*need)
	copy(n, s)
	return n
}

func ptrTruthy(p Pointer) bool {
	return !p.Glob.IsNil() || p.Local != nil || p.Off != 0
}

func round32(f float64) float64 { return float64(float32(f)) }

func cmpIRes(code int32, a, b int64) int64 {
	var res bool
	switch code {
	case cmpEQ:
		res = a == b
	case cmpNE:
		res = a != b
	case cmpLT:
		res = a < b
	case cmpLE:
		res = a <= b
	case cmpGT:
		res = a > b
	default:
		res = a >= b
	}
	if res {
		return 1
	}
	return 0
}

func cmpURes(code int32, a, b uint32) int64 {
	var res bool
	switch code {
	case cmpEQ:
		res = a == b
	case cmpNE:
		res = a != b
	case cmpLT:
		res = a < b
	case cmpLE:
		res = a <= b
	case cmpGT:
		res = a > b
	default:
		res = a >= b
	}
	if res {
		return 1
	}
	return 0
}

func cmpFRes(code int32, a, b float64) int64 {
	var res bool
	switch code {
	case cmpEQ:
		res = a == b
	case cmpNE:
		res = a != b
	case cmpLT:
		res = a < b
	case cmpLE:
		res = a <= b
	case cmpGT:
		res = a > b
	default:
		res = a >= b
	}
	if res {
		return 1
	}
	return 0
}

func cmpPRes(code int32, a, b Pointer) int64 {
	d := ptrDelta(a, b)
	eq := d == 0 && a.Space == b.Space && a.Glob == b.Glob && a.Local == b.Local
	var res bool
	switch code {
	case cmpEQ:
		res = eq
	case cmpNE:
		res = !eq
	case cmpLT:
		res = d < 0
	case cmpLE:
		res = d <= 0
	case cmpGT:
		res = d > 0
	default:
		res = d >= 0
	}
	if res {
		return 1
	}
	return 0
}

// vmAtomic mirrors the tree-walker's evalAtomic: memory-space dispatch and
// trap messages are resolved at run time. iv/fv carry the raw-converted
// operand (one of them, per the lowering's bank choice); iv2 is the
// atomicCAS third operand.
func vmAtomic(tc *gpusim.ThreadCtx, spec *atomSpec, p Pointer, iv int64, fv float64, iv2 int64) (Value, error) {
	elem := spec.elem
	switch p.Space {
	case SpaceGlobal:
		switch spec.name {
		case "atomicAdd", "atomicSub":
			if elem.Kind == KFloat {
				d := fv
				if spec.name == "atomicSub" {
					d = -d
				}
				old, err := tc.AtomicAddFloat32(p.Glob, 0, float32(d))
				return Value{T: elem, F: float64(old)}, err
			}
			d := iv
			if spec.name == "atomicSub" {
				d = -d
			}
			old, err := tc.AtomicAddInt32(p.Glob, 0, int32(d))
			return intValue(elem, int64(old)), err
		case "atomicMax":
			old, err := tc.AtomicMaxInt32(p.Glob, 0, int32(iv))
			return intValue(elem, int64(old)), err
		case "atomicMin":
			old, err := tc.AtomicMinInt32(p.Glob, 0, int32(iv))
			return intValue(elem, int64(old)), err
		case "atomicExch":
			if elem.Kind == KFloat {
				old, err := tc.AtomicExchInt32(p.Glob, 0, int32(math.Float32bits(float32(fv))))
				return Value{T: elem, F: float64(math.Float32frombits(uint32(old)))}, err
			}
			old, err := tc.AtomicExchInt32(p.Glob, 0, int32(iv))
			return intValue(elem, int64(old)), err
		case "atomicCAS":
			old, err := tc.AtomicCASInt32(p.Glob, 0, int32(iv), int32(iv2))
			return intValue(elem, int64(old)), err
		}
	case SpaceShared:
		switch spec.name {
		case "atomicAdd", "atomicSub":
			if elem.Kind == KFloat {
				d := fv
				if spec.name == "atomicSub" {
					d = -d
				}
				old, err := tc.SharedAtomicAddFloat32(p.Off/4, float32(d))
				return Value{T: elem, F: float64(old)}, err
			}
			d := iv
			if spec.name == "atomicSub" {
				d = -d
			}
			old, err := tc.SharedAtomicAddInt32(p.Off/4, int32(d))
			return intValue(elem, int64(old)), err
		}
		return Value{}, errAt(spec.tok, "%s is not supported on shared memory", spec.name)
	}
	return Value{}, errAt(spec.tok, "atomic on unsupported memory space %s", p.Space)
}

// atomFloatVal reports whether the lowering placed the atomic's value
// operand in the float bank (must match the choice in lowerer.builtin).
func atomFloatVal(spec *atomSpec) bool {
	if spec.elem.Kind != KFloat {
		return false
	}
	switch spec.name {
	case "atomicAdd", "atomicSub", "atomicExch":
		return true
	}
	return false
}

func dimPick(dims *[12]int, base int32, dim int64) int {
	if dim >= 0 && dim < 3 {
		return dims[base*3+int32(dim)]
	}
	return 0
}
