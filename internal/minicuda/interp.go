package minicuda

import (
	"errors"
	"fmt"
	"math"

	"webgpu/internal/gpusim"
)

// Runtime errors surfaced to students.
var (
	ErrStepLimit  = errors.New("minicuda: kernel execution time limit exceeded")
	ErrDivByZero  = errors.New("minicuda: integer division by zero")
	ErrBadAddress = errors.New("minicuda: invalid address operation")
	ErrCallDepth  = errors.New("minicuda: device call stack overflow")
)

// Value is a runtime value: one of a scalar (I or F by type kind) or a
// pointer.
type Value struct {
	T *Type
	I int64
	F float64
	P Pointer
}

// Pointer is a typed device address in one of the memory spaces.
type Pointer struct {
	Space MemSpace
	Elem  *Type
	Glob  gpusim.Ptr // SpaceGlobal: allocation handle + byte offset
	Off   int        // byte offset for SpaceShared/SpaceConst/SpaceLocal
	Local *localBuf  // SpaceLocal backing store
}

// localBuf backs a per-thread local array (register tiling arrays).
type localBuf struct {
	vals []Value
	elem *Type
}

// offset returns the pointer advanced by n bytes.
func (p Pointer) offset(n int) Pointer {
	q := p
	if p.Space == SpaceGlobal {
		q.Glob = p.Glob.Offset(n)
	} else {
		q.Off += n
	}
	return q
}

func intValue(t *Type, i int64) Value   { return Value{T: t, I: truncInt(t, i)} }
func floatValue(f float64) Value        { return Value{T: TypeFloat, F: float64(float32(f))} }
func ptrValue(t *Type, p Pointer) Value { return Value{T: t, P: p} }

// truncInt applies the width/signedness of t to i.
func truncInt(t *Type, i int64) int64 {
	switch t.Kind {
	case KBool:
		if i != 0 {
			return 1
		}
		return 0
	case KChar:
		return int64(int8(i))
	case KUChar:
		return int64(uint8(i))
	case KInt:
		return int64(int32(i))
	case KUInt:
		return int64(uint32(i))
	}
	return i
}

// convert coerces v to type to.
func convert(v Value, to *Type) Value {
	if to.Kind == KPtr {
		if v.T != nil && (v.T.Kind == KPtr || v.T.Kind == KArray) {
			p := v.P
			p.Elem = to.Elem
			return ptrValue(to, p)
		}
		return ptrValue(to, v.P)
	}
	if to.Kind == KFloat {
		if v.T != nil && v.T.Kind == KFloat {
			return Value{T: to, F: float64(float32(v.F))}
		}
		return Value{T: to, F: float64(float32(v.I))}
	}
	// integer target
	if v.T != nil && v.T.Kind == KFloat {
		return intValue(to, int64(v.F))
	}
	return intValue(to, v.I)
}

// truthy reports C truthiness.
func (v Value) truthy() bool {
	if v.T != nil {
		switch v.T.Kind {
		case KFloat:
			return v.F != 0
		case KPtr:
			return !v.P.Glob.IsNil() || v.P.Local != nil || v.P.Off != 0
		}
	}
	return v.I != 0
}

// lvalue designates an assignable location.
type lvalue struct {
	slot   int // frame slot, when ptr.Elem == nil and local == true
	isSlot bool
	ptr    Pointer // memory location of a scalar, when !isSlot
}

// control models non-local statement exits.
type ctlKind int

const (
	ctlNext ctlKind = iota
	ctlBreak
	ctlContinue
	ctlReturn
)

type control struct {
	kind ctlKind
	val  Value
}

// thread interprets one simulated GPU thread.
type thread struct {
	prog     *Program
	tc       *gpusim.ThreadCtx
	steps    int64
	maxSteps int64
	depth    int
	dyn      int // dynamic shared bytes offset (static shared comes first)
}

func (th *thread) step() error {
	th.steps++
	if th.steps > th.maxSteps {
		return ErrStepLimit
	}
	return nil
}

// ---- Statement execution ----------------------------------------------------

func (th *thread) execBlock(fr []Value, b *Block) (control, error) {
	for _, s := range b.Stmts {
		c, err := th.execStmt(fr, s)
		if err != nil || c.kind != ctlNext {
			return c, err
		}
	}
	return control{}, nil
}

func (th *thread) execStmt(fr []Value, s Stmt) (control, error) {
	if err := th.step(); err != nil {
		return control{}, err
	}
	switch st := s.(type) {
	case *Block:
		return th.execBlock(fr, st)
	case *EmptyStmt:
		return control{}, nil
	case *DeclStmt:
		for _, d := range st.Decls {
			if err := th.execDecl(fr, d); err != nil {
				return control{}, err
			}
		}
		return control{}, nil
	case *ExprStmt:
		_, err := th.eval(fr, st.X)
		return control{}, err
	case *IfStmt:
		cond, err := th.eval(fr, st.Cond)
		if err != nil {
			return control{}, err
		}
		th.tc.CountBranch()
		if cond.truthy() {
			return th.execStmt(fr, st.Then)
		}
		if st.Else != nil {
			return th.execStmt(fr, st.Else)
		}
		return control{}, nil
	case *ForStmt:
		if st.Init != nil {
			if c, err := th.execStmt(fr, st.Init); err != nil || c.kind == ctlReturn {
				return c, err
			}
		}
		for {
			if st.Cond != nil {
				cond, err := th.eval(fr, st.Cond)
				if err != nil {
					return control{}, err
				}
				th.tc.CountBranch()
				if !cond.truthy() {
					return control{}, nil
				}
			}
			c, err := th.execStmt(fr, st.Body)
			if err != nil {
				return control{}, err
			}
			switch c.kind {
			case ctlReturn:
				return c, nil
			case ctlBreak:
				return control{}, nil
			}
			if st.Post != nil {
				if _, err := th.eval(fr, st.Post); err != nil {
					return control{}, err
				}
			}
			if err := th.step(); err != nil {
				return control{}, err
			}
		}
	case *WhileStmt:
		first := st.DoFirst
		for {
			if !first {
				cond, err := th.eval(fr, st.Cond)
				if err != nil {
					return control{}, err
				}
				th.tc.CountBranch()
				if !cond.truthy() {
					return control{}, nil
				}
			}
			first = false
			c, err := th.execStmt(fr, st.Body)
			if err != nil {
				return control{}, err
			}
			switch c.kind {
			case ctlReturn:
				return c, nil
			case ctlBreak:
				return control{}, nil
			}
			if st.DoFirst {
				cond, err := th.eval(fr, st.Cond)
				if err != nil {
					return control{}, err
				}
				th.tc.CountBranch()
				if !cond.truthy() {
					return control{}, nil
				}
			}
			if err := th.step(); err != nil {
				return control{}, err
			}
		}
	case *ReturnStmt:
		var v Value
		if st.X != nil {
			x, err := th.eval(fr, st.X)
			if err != nil {
				return control{}, err
			}
			v = x
		}
		return control{kind: ctlReturn, val: v}, nil
	case *BreakStmt:
		return control{kind: ctlBreak}, nil
	case *ContinueStmt:
		return control{kind: ctlContinue}, nil
	}
	return control{}, fmt.Errorf("minicuda: internal: unknown statement %T", s)
}

func (th *thread) execDecl(fr []Value, d *VarDecl) error {
	sym := d.Sym
	switch sym.Kind {
	case SymShared:
		return nil // laid out at compile time, nothing to do per thread
	case SymLocal:
		t := sym.Type
		if t.Kind == KArray {
			n := t.Size() / t.ElemBase().Size()
			buf := &localBuf{vals: make([]Value, n), elem: t.ElemBase()}
			for i := range buf.vals {
				buf.vals[i] = Value{T: buf.elem}
			}
			fr[sym.Slot] = ptrValue(t, Pointer{Space: SpaceLocal, Elem: t, Local: buf})
			return nil
		}
		if d.Init != nil {
			v, err := th.eval(fr, d.Init)
			if err != nil {
				return err
			}
			fr[sym.Slot] = convert(v, t)
		} else {
			fr[sym.Slot] = Value{T: t}
		}
		return nil
	}
	return fmt.Errorf("minicuda: internal: bad decl kind")
}

// ---- Memory -----------------------------------------------------------------

// loadMem loads the scalar of type t at pointer p. It is shared by the
// tree-walking interpreter and the warp engine.
func loadMem(tc *gpusim.ThreadCtx, p Pointer, t *Type) (Value, error) {
	size := t.Size()
	switch p.Space {
	case SpaceGlobal:
		switch size {
		case 4:
			if t.Kind == KFloat {
				f, err := tc.LoadFloat32(p.Glob, 0)
				if err != nil {
					return Value{}, err
				}
				return Value{T: t, F: float64(f)}, nil
			}
			i, err := tc.LoadInt32(p.Glob, 0)
			if err != nil {
				return Value{}, err
			}
			return intValue(t, int64(i)), nil
		case 1:
			b, err := tc.LoadByte(p.Glob, 0)
			if err != nil {
				return Value{}, err
			}
			return intValue(t, int64(b)), nil
		}
	case SpaceShared:
		if t.Kind == KFloat {
			f, err := tc.SharedLoadFloat32(p.Off / 4)
			if err != nil {
				return Value{}, err
			}
			return Value{T: t, F: float64(f)}, nil
		}
		i, err := tc.SharedLoadInt32(p.Off / 4)
		if err != nil {
			return Value{}, err
		}
		return intValue(t, int64(i)), nil
	case SpaceConst:
		if t.Kind == KFloat {
			f, err := tc.ConstLoadFloat32(p.Off / 4)
			if err != nil {
				return Value{}, err
			}
			return Value{T: t, F: float64(f)}, nil
		}
		i, err := tc.ConstLoadInt32(p.Off / 4)
		if err != nil {
			return Value{}, err
		}
		return intValue(t, int64(i)), nil
	case SpaceLocal:
		idx := p.Off / p.Local.elem.Size()
		if idx < 0 || idx >= len(p.Local.vals) {
			return Value{}, fmt.Errorf("%w: local array index %d out of range [0,%d)",
				gpusim.ErrIllegalAccess, idx, len(p.Local.vals))
		}
		v := p.Local.vals[idx]
		v.T = t
		return v, nil
	}
	return Value{}, fmt.Errorf("%w: unsupported %d-byte access in %s memory",
		ErrBadAddress, size, p.Space)
}

// storeMem stores scalar v (already converted to t) at pointer p. It is
// shared by the tree-walking interpreter and the warp engine.
func storeMem(tc *gpusim.ThreadCtx, p Pointer, t *Type, v Value) error {
	size := t.Size()
	switch p.Space {
	case SpaceGlobal:
		switch size {
		case 4:
			if t.Kind == KFloat {
				return tc.StoreFloat32(p.Glob, 0, float32(v.F))
			}
			return tc.StoreInt32(p.Glob, 0, int32(v.I))
		case 1:
			return tc.StoreByte(p.Glob, 0, byte(v.I))
		}
	case SpaceShared:
		if t.Kind == KFloat {
			return tc.SharedStoreFloat32(p.Off/4, float32(v.F))
		}
		return tc.SharedStoreInt32(p.Off/4, int32(v.I))
	case SpaceConst:
		return fmt.Errorf("%w: constant memory is read-only", gpusim.ErrIllegalAccess)
	case SpaceLocal:
		idx := p.Off / p.Local.elem.Size()
		if idx < 0 || idx >= len(p.Local.vals) {
			return fmt.Errorf("%w: local array index %d out of range [0,%d)",
				gpusim.ErrIllegalAccess, idx, len(p.Local.vals))
		}
		p.Local.vals[idx] = v
		return nil
	}
	return fmt.Errorf("%w: unsupported %d-byte store in %s memory", ErrBadAddress, size, p.Space)
}

// ---- Lvalues ------------------------------------------------------------------

func (th *thread) evalLvalue(fr []Value, e Expr) (lvalue, error) {
	switch x := e.(type) {
	case *VarRef:
		sym := x.Sym
		switch sym.Kind {
		case SymLocal:
			if sym.Type.Kind == KArray {
				return lvalue{}, errAt(x.Tok(), "cannot assign to array %q", x.Name)
			}
			return lvalue{isSlot: true, slot: sym.Slot}, nil
		case SymShared:
			return lvalue{ptr: Pointer{Space: SpaceShared, Elem: sym.Type, Off: sym.Off}}, nil
		case SymConst:
			return lvalue{ptr: Pointer{Space: SpaceConst, Elem: sym.Type, Off: sym.Off}}, nil
		}
	case *Index:
		p, err := th.evalAddr(fr, x.Base)
		if err != nil {
			return lvalue{}, err
		}
		idx, err := th.eval(fr, x.Idx)
		if err != nil {
			return lvalue{}, err
		}
		elem := x.ResultType()
		th.tc.CountALU(2)
		return lvalue{ptr: p.offset(int(idx.I) * elem.Size()).withElem(elem)}, nil
	case *Unary:
		if x.Op == "*" {
			pv, err := th.eval(fr, x.X)
			if err != nil {
				return lvalue{}, err
			}
			p := pv.P
			p.Elem = x.ResultType()
			return lvalue{ptr: p}, nil
		}
	}
	return lvalue{}, errAt(e.Tok(), "expression is not assignable")
}

func (p Pointer) withElem(t *Type) Pointer {
	p.Elem = t
	return p
}

// evalAddr computes the address of an expression that designates storage
// (array names, pointers, indexed arrays).
func (th *thread) evalAddr(fr []Value, e Expr) (Pointer, error) {
	t := e.ResultType()
	switch x := e.(type) {
	case *VarRef:
		sym := x.Sym
		switch sym.Kind {
		case SymShared:
			return Pointer{Space: SpaceShared, Elem: sym.Type, Off: sym.Off}, nil
		case SymConst:
			return Pointer{Space: SpaceConst, Elem: sym.Type, Off: sym.Off}, nil
		case SymLocal:
			v := fr[sym.Slot]
			if sym.Type.Kind == KArray || sym.Type.Kind == KPtr {
				return v.P, nil
			}
			return Pointer{}, errAt(x.Tok(), "cannot address register variable %q", x.Name)
		}
	case *Index:
		base, err := th.evalAddr(fr, x.Base)
		if err != nil {
			return Pointer{}, err
		}
		idx, err := th.eval(fr, x.Idx)
		if err != nil {
			return Pointer{}, err
		}
		th.tc.CountALU(2)
		return base.offset(int(idx.I) * t.Size()).withElem(t), nil
	case *Unary:
		if x.Op == "*" {
			pv, err := th.eval(fr, x.X)
			if err != nil {
				return Pointer{}, err
			}
			return pv.P.withElem(t), nil
		}
	default:
		// A pointer-valued expression (e.g. p + 4).
		v, err := th.eval(fr, e)
		if err != nil {
			return Pointer{}, err
		}
		if v.T != nil && (v.T.Kind == KPtr || v.T.Kind == KArray) {
			return v.P, nil
		}
	}
	return Pointer{}, errAt(e.Tok(), "expression does not designate storage")
}

func (th *thread) loadLvalue(fr []Value, lv lvalue, t *Type) (Value, error) {
	if lv.isSlot {
		return fr[lv.slot], nil
	}
	return loadMem(th.tc, lv.ptr, t)
}

func (th *thread) storeLvalue(fr []Value, lv lvalue, t *Type, v Value) error {
	cv := convert(v, t)
	if lv.isSlot {
		fr[lv.slot] = cv
		return nil
	}
	return storeMem(th.tc, lv.ptr, t, cv)
}

// ---- Expression evaluation ---------------------------------------------------

func (th *thread) eval(fr []Value, e Expr) (Value, error) {
	if err := th.step(); err != nil {
		return Value{}, err
	}
	switch x := e.(type) {
	case *IntLit:
		return x.val, nil
	case *FloatLit:
		return x.val, nil
	case *BoolLit:
		return x.val, nil
	case *VarRef:
		sym := x.Sym
		switch sym.Kind {
		case SymLocal:
			return fr[sym.Slot], nil
		case SymShared:
			if sym.Type.Kind == KArray {
				return ptrValue(sym.Type, Pointer{Space: SpaceShared, Elem: sym.Type, Off: sym.Off}), nil
			}
			return loadMem(th.tc, Pointer{Space: SpaceShared, Off: sym.Off}, sym.Type)
		case SymConst:
			if sym.Type.Kind == KArray {
				return ptrValue(sym.Type, Pointer{Space: SpaceConst, Elem: sym.Type, Off: sym.Off}), nil
			}
			return loadMem(th.tc, Pointer{Space: SpaceConst, Off: sym.Off}, sym.Type)
		}
	case *BuiltinVarRef:
		return intValue(TypeInt, int64(th.builtinDim(x.baseID, x.Dim))), nil
	case *Unary:
		return th.evalUnary(fr, x)
	case *Postfix:
		lv, err := th.evalLvalue(fr, x.X)
		if err != nil {
			return Value{}, err
		}
		t := x.X.ResultType()
		old, err := th.loadLvalue(fr, lv, t)
		if err != nil {
			return Value{}, err
		}
		delta := int64(1)
		if x.Op == "--" {
			delta = -1
		}
		th.tc.CountALU(1)
		var nv Value
		if t.Kind == KFloat {
			nv = floatValue(old.F + float64(delta))
		} else if t.Kind == KPtr {
			nv = ptrValue(t, old.P.offset(int(delta)*t.Elem.Size()))
		} else {
			nv = intValue(t, old.I+delta)
		}
		if err := th.storeLvalue(fr, lv, t, nv); err != nil {
			return Value{}, err
		}
		return old, nil
	case *Binary:
		return th.evalBinary(fr, x)
	case *Assign:
		return th.evalAssign(fr, x)
	case *Ternary:
		cond, err := th.eval(fr, x.Cond)
		if err != nil {
			return Value{}, err
		}
		th.tc.CountBranch()
		var branch Expr
		if cond.truthy() {
			branch = x.Then
		} else {
			branch = x.Else
		}
		v, err := th.eval(fr, branch)
		if err != nil {
			return Value{}, err
		}
		if x.ResultType().IsScalar() {
			return convert(v, x.ResultType()), nil
		}
		return v, nil
	case *Index:
		t := x.ResultType()
		if t.Kind == KArray {
			// Indexing a multi-dim array yields a sub-array address.
			p, err := th.evalAddr(fr, x)
			if err != nil {
				return Value{}, err
			}
			return ptrValue(t, p), nil
		}
		p, err := th.evalAddr(fr, x)
		if err != nil {
			return Value{}, err
		}
		return loadMem(th.tc, p, t)
	case *Cast:
		v, err := th.eval(fr, x.X)
		if err != nil {
			return Value{}, err
		}
		th.tc.CountALU(1)
		return convert(v, x.To), nil
	case *Call:
		return th.evalCall(fr, x)
	}
	return Value{}, fmt.Errorf("minicuda: internal: unknown expression %T", e)
}

func (th *thread) builtinDim(base uint8, dim int) int {
	var d gpusim.Dim3
	switch base {
	case baseThreadIdx:
		d = th.tc.ThreadIdx
	case baseBlockIdx:
		d = th.tc.BlockIdx
	case baseBlockDim:
		d = th.tc.BlockDim
	case baseGridDim:
		d = th.tc.GridDim
	}
	switch dim {
	case 0:
		return d.X
	case 1:
		return d.Y
	case 2:
		return d.Z
	}
	return 0
}

func (th *thread) evalUnary(fr []Value, x *Unary) (Value, error) {
	switch x.Op {
	case "+", "-", "!", "~":
		v, err := th.eval(fr, x.X)
		if err != nil {
			return Value{}, err
		}
		th.tc.CountALU(1)
		t := x.ResultType()
		switch x.Op {
		case "+":
			return convert(v, t), nil
		case "-":
			if t.Kind == KFloat {
				return floatValue(-toF(v)), nil
			}
			return intValue(t, -toI(v)), nil
		case "!":
			if v.truthy() {
				return intValue(TypeInt, 0), nil
			}
			return intValue(TypeInt, 1), nil
		case "~":
			return intValue(t, ^toI(v)), nil
		}
	case "*":
		p, err := th.evalAddr(fr, x)
		if err != nil {
			return Value{}, err
		}
		t := x.ResultType()
		if t.Kind == KArray {
			return ptrValue(t, p), nil
		}
		return loadMem(th.tc, p, t)
	case "&":
		p, err := th.evalAddr(fr, x.X)
		if err != nil {
			// Address of a memory-resident scalar lvalue.
			lv, lerr := th.evalLvalue(fr, x.X)
			if lerr != nil || lv.isSlot {
				return Value{}, errAt(x.Tok(), "cannot take the address of this expression")
			}
			return ptrValue(x.ResultType(), lv.ptr), nil
		}
		return ptrValue(x.ResultType(), p), nil
	case "++", "--":
		lv, err := th.evalLvalue(fr, x.X)
		if err != nil {
			return Value{}, err
		}
		t := x.X.ResultType()
		old, err := th.loadLvalue(fr, lv, t)
		if err != nil {
			return Value{}, err
		}
		delta := int64(1)
		if x.Op == "--" {
			delta = -1
		}
		th.tc.CountALU(1)
		var nv Value
		if t.Kind == KFloat {
			nv = floatValue(old.F + float64(delta))
		} else if t.Kind == KPtr {
			nv = ptrValue(t, old.P.offset(int(delta)*t.Elem.Size()))
		} else {
			nv = intValue(t, old.I+delta)
		}
		if err := th.storeLvalue(fr, lv, t, nv); err != nil {
			return Value{}, err
		}
		return nv, nil
	}
	return Value{}, errAt(x.Tok(), "unsupported unary %q", x.Op)
}

func toF(v Value) float64 {
	if v.T != nil && v.T.Kind == KFloat {
		return v.F
	}
	return float64(v.I)
}

func toI(v Value) int64 {
	if v.T != nil && v.T.Kind == KFloat {
		return int64(v.F)
	}
	return v.I
}

func (th *thread) evalBinary(fr []Value, x *Binary) (Value, error) {
	switch x.Op {
	case "&&":
		l, err := th.eval(fr, x.L)
		if err != nil {
			return Value{}, err
		}
		th.tc.CountBranch()
		if !l.truthy() {
			return intValue(TypeInt, 0), nil
		}
		r, err := th.eval(fr, x.R)
		if err != nil {
			return Value{}, err
		}
		if r.truthy() {
			return intValue(TypeInt, 1), nil
		}
		return intValue(TypeInt, 0), nil
	case "||":
		l, err := th.eval(fr, x.L)
		if err != nil {
			return Value{}, err
		}
		th.tc.CountBranch()
		if l.truthy() {
			return intValue(TypeInt, 1), nil
		}
		r, err := th.eval(fr, x.R)
		if err != nil {
			return Value{}, err
		}
		if r.truthy() {
			return intValue(TypeInt, 1), nil
		}
		return intValue(TypeInt, 0), nil
	case ",":
		if _, err := th.eval(fr, x.L); err != nil {
			return Value{}, err
		}
		return th.eval(fr, x.R)
	}

	l, err := th.eval(fr, x.L)
	if err != nil {
		return Value{}, err
	}
	r, err := th.eval(fr, x.R)
	if err != nil {
		return Value{}, err
	}
	th.tc.CountALU(1)

	lt, rt := x.L.ResultType(), x.R.ResultType()

	// Pointer arithmetic and comparison.
	if lt != nil && (lt.Kind == KPtr || lt.Kind == KArray) {
		switch x.Op {
		case "+", "-":
			if rt != nil && rt.Kind == KPtr {
				return intValue(TypeInt, int64((ptrDelta(l.P, r.P))/lt.Elem.Size())), nil
			}
			n := int(toI(r)) * elemSizeOf(lt)
			if x.Op == "-" {
				n = -n
			}
			return ptrValue(x.ResultType(), l.P.offset(n)), nil
		case "==", "!=", "<", "<=", ">", ">=":
			return comparePtrs(x.Op, l.P, r.P), nil
		}
	}
	if rt != nil && rt.Kind == KPtr && x.Op == "+" {
		n := int(toI(l)) * rt.Elem.Size()
		return ptrValue(x.ResultType(), r.P.offset(n)), nil
	}

	switch x.Op {
	case "==", "!=", "<", "<=", ">", ">=":
		ct := commonType(lt, rt)
		var res bool
		if ct.Kind == KFloat {
			a, b := toF(l), toF(r)
			res = compareF(x.Op, a, b)
		} else if ct.Kind == KUInt {
			a, b := uint32(toI(l)), uint32(toI(r))
			res = compareU(x.Op, a, b)
		} else {
			res = compareI(x.Op, toI(l), toI(r))
		}
		if res {
			return intValue(TypeInt, 1), nil
		}
		return intValue(TypeInt, 0), nil
	}

	t := x.ResultType()
	if t.Kind == KFloat {
		a, b := toF(l), toF(r)
		var f float64
		switch x.Op {
		case "+":
			f = a + b
		case "-":
			f = a - b
		case "*":
			f = a * b
		case "/":
			f = a / b
		default:
			return Value{}, errAt(x.Tok(), "invalid float operator %q", x.Op)
		}
		return floatValue(f), nil
	}

	a, b := toI(l), toI(r)
	unsigned := t.Kind == KUInt || t.Kind == KUChar
	var i int64
	switch x.Op {
	case "+":
		i = a + b
	case "-":
		i = a - b
	case "*":
		i = a * b
	case "/":
		if b == 0 {
			return Value{}, ErrDivByZero
		}
		if unsigned {
			i = int64(uint32(a) / uint32(b))
		} else {
			i = a / b
		}
	case "%":
		if b == 0 {
			return Value{}, ErrDivByZero
		}
		if unsigned {
			i = int64(uint32(a) % uint32(b))
		} else {
			i = a % b
		}
	case "&":
		i = a & b
	case "|":
		i = a | b
	case "^":
		i = a ^ b
	case "<<":
		i = a << (uint(b) & 31)
	case ">>":
		if unsigned {
			i = int64(uint32(a) >> (uint(b) & 31))
		} else {
			i = int64(int32(a) >> (uint(b) & 31))
		}
	default:
		return Value{}, errAt(x.Tok(), "invalid integer operator %q", x.Op)
	}
	return intValue(t, i), nil
}

func elemSizeOf(t *Type) int {
	if t.Elem != nil {
		return t.Elem.Size()
	}
	return 1
}

func ptrDelta(a, b Pointer) int {
	if a.Space == SpaceGlobal {
		return a.Glob.Off - b.Glob.Off
	}
	return a.Off - b.Off
}

func comparePtrs(op string, a, b Pointer) Value {
	d := ptrDelta(a, b)
	eq := d == 0 && a.Space == b.Space && a.Glob == b.Glob && a.Local == b.Local
	var res bool
	switch op {
	case "==":
		res = eq
	case "!=":
		res = !eq
	case "<":
		res = d < 0
	case "<=":
		res = d <= 0
	case ">":
		res = d > 0
	case ">=":
		res = d >= 0
	}
	if res {
		return intValue(TypeInt, 1)
	}
	return intValue(TypeInt, 0)
}

func compareF(op string, a, b float64) bool {
	switch op {
	case "==":
		return a == b
	case "!=":
		return a != b
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	case ">=":
		return a >= b
	}
	return false
}

func compareI(op string, a, b int64) bool {
	switch op {
	case "==":
		return a == b
	case "!=":
		return a != b
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	case ">=":
		return a >= b
	}
	return false
}

func compareU(op string, a, b uint32) bool {
	switch op {
	case "==":
		return a == b
	case "!=":
		return a != b
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	case ">=":
		return a >= b
	}
	return false
}

func (th *thread) evalAssign(fr []Value, x *Assign) (Value, error) {
	lv, err := th.evalLvalue(fr, x.L)
	if err != nil {
		return Value{}, err
	}
	t := x.L.ResultType()
	if x.Op == "=" {
		r, err := th.eval(fr, x.R)
		if err != nil {
			return Value{}, err
		}
		cv := convert(r, t)
		if err := th.storeLvalue(fr, lv, t, cv); err != nil {
			return Value{}, err
		}
		return cv, nil
	}
	old, err := th.loadLvalue(fr, lv, t)
	if err != nil {
		return Value{}, err
	}
	r, err := th.eval(fr, x.R)
	if err != nil {
		return Value{}, err
	}
	th.tc.CountALU(1)
	var nv Value
	op := x.Op[:len(x.Op)-1]
	if t.Kind == KPtr {
		n := int(toI(r)) * t.Elem.Size()
		if op == "-" {
			n = -n
		}
		nv = ptrValue(t, old.P.offset(n))
	} else if t.Kind == KFloat {
		a, b := old.F, toF(r)
		var f float64
		switch op {
		case "+":
			f = a + b
		case "-":
			f = a - b
		case "*":
			f = a * b
		case "/":
			f = a / b
		default:
			return Value{}, errAt(x.Tok(), "invalid float compound assignment %q", x.Op)
		}
		nv = floatValue(f)
	} else {
		a, b := old.I, toI(r)
		var i int64
		switch op {
		case "+":
			i = a + b
		case "-":
			i = a - b
		case "*":
			i = a * b
		case "/":
			if b == 0 {
				return Value{}, ErrDivByZero
			}
			i = a / b
		case "%":
			if b == 0 {
				return Value{}, ErrDivByZero
			}
			i = a % b
		case "&":
			i = a & b
		case "|":
			i = a | b
		case "^":
			i = a ^ b
		case "<<":
			i = a << (uint(b) & 31)
		case ">>":
			i = a >> (uint(b) & 31)
		}
		nv = intValue(t, i)
	}
	if err := th.storeLvalue(fr, lv, t, nv); err != nil {
		return Value{}, err
	}
	return nv, nil
}

// ---- Calls --------------------------------------------------------------------

const maxCallDepth = 64

func (th *thread) evalCall(fr []Value, x *Call) (Value, error) {
	if x.Fn != nil {
		if th.depth >= maxCallDepth {
			return Value{}, ErrCallDepth
		}
		nf := make([]Value, x.Fn.NumSlots)
		for i, arg := range x.Args {
			v, err := th.eval(fr, arg)
			if err != nil {
				return Value{}, err
			}
			nf[x.Fn.Params[i].Sym.Slot] = convert(v, x.Fn.Params[i].Type)
		}
		th.depth++
		c, err := th.execBlock(nf, x.Fn.Body)
		th.depth--
		if err != nil {
			return Value{}, err
		}
		if c.kind == ctlReturn {
			return convert(c.val, x.Fn.Ret), nil
		}
		return Value{T: x.Fn.Ret}, nil
	}
	return th.evalBuiltin(fr, x)
}

func (th *thread) evalBuiltin(fr []Value, x *Call) (Value, error) {
	// Builtins take at most three arguments (atomicCAS); evaluating into a
	// stack buffer keeps this hot path allocation-free.
	var buf [4]Value
	var args []Value
	if n := len(x.Args); n <= len(buf) {
		args = buf[:n]
	} else {
		args = make([]Value, n)
	}
	for i, a := range x.Args {
		v, err := th.eval(fr, a)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	switch x.Builtin {
	case "__syncthreads", "barrier":
		return Value{T: TypeVoid}, th.tc.SyncThreads()
	case "__threadfence":
		return Value{T: TypeVoid}, nil
	case "atomicAdd", "atomicSub", "atomicMax", "atomicMin", "atomicExch", "atomicCAS":
		return th.evalAtomic(x, args)
	case "get_global_id", "get_local_id", "get_group_id",
		"get_local_size", "get_num_groups", "get_global_size":
		return th.evalWorkItem(x.Builtin, int(toI(args[0]))), nil
	case "min", "max":
		t := x.ResultType()
		if t.Kind == KFloat {
			a, b := toF(args[0]), toF(args[1])
			th.tc.CountALU(1)
			if x.Builtin == "min" {
				return floatValue(math.Min(a, b)), nil
			}
			return floatValue(math.Max(a, b)), nil
		}
		a, b := toI(args[0]), toI(args[1])
		th.tc.CountALU(1)
		if x.Builtin == "min" {
			if a < b {
				return intValue(t, a), nil
			}
			return intValue(t, b), nil
		}
		if a > b {
			return intValue(t, a), nil
		}
		return intValue(t, b), nil
	case "abs":
		v := toI(args[0])
		th.tc.CountALU(1)
		if v < 0 {
			v = -v
		}
		return intValue(TypeInt, v), nil
	case "fminf":
		th.tc.CountALU(1)
		return floatValue(math.Min(toF(args[0]), toF(args[1]))), nil
	case "fmaxf":
		th.tc.CountALU(1)
		return floatValue(math.Max(toF(args[0]), toF(args[1]))), nil
	case "fabsf":
		th.tc.CountALU(1)
		return floatValue(math.Abs(toF(args[0]))), nil
	case "floorf":
		th.tc.CountALU(1)
		return floatValue(math.Floor(toF(args[0]))), nil
	case "ceilf":
		th.tc.CountALU(1)
		return floatValue(math.Ceil(toF(args[0]))), nil
	case "sqrtf":
		th.tc.CountSpecial(1)
		return floatValue(math.Sqrt(toF(args[0]))), nil
	case "rsqrtf":
		th.tc.CountSpecial(1)
		return floatValue(1 / math.Sqrt(toF(args[0]))), nil
	case "expf":
		th.tc.CountSpecial(1)
		return floatValue(math.Exp(toF(args[0]))), nil
	case "logf":
		th.tc.CountSpecial(1)
		return floatValue(math.Log(toF(args[0]))), nil
	case "powf":
		th.tc.CountSpecial(1)
		return floatValue(math.Pow(toF(args[0]), toF(args[1]))), nil
	case "sinf":
		th.tc.CountSpecial(1)
		return floatValue(math.Sin(toF(args[0]))), nil
	case "cosf":
		th.tc.CountSpecial(1)
		return floatValue(math.Cos(toF(args[0]))), nil
	}
	return Value{}, errAt(x.Tok(), "unimplemented builtin %q", x.Builtin)
}

func (th *thread) evalWorkItem(name string, dim int) Value {
	tc := th.tc
	pick := func(d gpusim.Dim3) int {
		switch dim {
		case 0:
			return d.X
		case 1:
			return d.Y
		case 2:
			return d.Z
		}
		return 0
	}
	var v int
	switch name {
	case "get_global_id":
		v = pick(tc.BlockIdx)*pick(tc.BlockDim) + pick(tc.ThreadIdx)
	case "get_local_id":
		v = pick(tc.ThreadIdx)
	case "get_group_id":
		v = pick(tc.BlockIdx)
	case "get_local_size":
		v = pick(tc.BlockDim)
	case "get_num_groups":
		v = pick(tc.GridDim)
	case "get_global_size":
		v = pick(tc.GridDim) * pick(tc.BlockDim)
	}
	return intValue(TypeInt, int64(v))
}

func (th *thread) evalAtomic(x *Call, args []Value) (Value, error) {
	p := args[0].P
	elem := x.ResultType()
	switch p.Space {
	case SpaceGlobal:
		switch x.Builtin {
		case "atomicAdd", "atomicSub":
			if elem.Kind == KFloat {
				d := toF(args[1])
				if x.Builtin == "atomicSub" {
					d = -d
				}
				old, err := th.tc.AtomicAddFloat32(p.Glob, 0, float32(d))
				return Value{T: elem, F: float64(old)}, err
			}
			d := toI(args[1])
			if x.Builtin == "atomicSub" {
				d = -d
			}
			old, err := th.tc.AtomicAddInt32(p.Glob, 0, int32(d))
			return intValue(elem, int64(old)), err
		case "atomicMax":
			old, err := th.tc.AtomicMaxInt32(p.Glob, 0, int32(toI(args[1])))
			return intValue(elem, int64(old)), err
		case "atomicMin":
			old, err := th.tc.AtomicMinInt32(p.Glob, 0, int32(toI(args[1])))
			return intValue(elem, int64(old)), err
		case "atomicExch":
			if elem.Kind == KFloat {
				old, err := th.tc.AtomicExchInt32(p.Glob, 0, int32(math.Float32bits(float32(toF(args[1])))))
				return Value{T: elem, F: float64(math.Float32frombits(uint32(old)))}, err
			}
			old, err := th.tc.AtomicExchInt32(p.Glob, 0, int32(toI(args[1])))
			return intValue(elem, int64(old)), err
		case "atomicCAS":
			old, err := th.tc.AtomicCASInt32(p.Glob, 0, int32(toI(args[1])), int32(toI(args[2])))
			return intValue(elem, int64(old)), err
		}
	case SpaceShared:
		switch x.Builtin {
		case "atomicAdd", "atomicSub":
			if elem.Kind == KFloat {
				d := toF(args[1])
				if x.Builtin == "atomicSub" {
					d = -d
				}
				old, err := th.tc.SharedAtomicAddFloat32(p.Off/4, float32(d))
				return Value{T: elem, F: float64(old)}, err
			}
			d := toI(args[1])
			if x.Builtin == "atomicSub" {
				d = -d
			}
			old, err := th.tc.SharedAtomicAddInt32(p.Off/4, int32(d))
			return intValue(elem, int64(old)), err
		}
		return Value{}, errAt(x.Tok(), "%s is not supported on shared memory", x.Builtin)
	}
	return Value{}, errAt(x.Tok(), "atomic on unsupported memory space %s", p.Space)
}
