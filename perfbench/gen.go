package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"webgpu/internal/labs"
	"webgpu/internal/sandbox"
)

// The source generator rewrites a lab's reference solution without
// changing what it computes: locals are renamed, literals take an
// equivalent spelling, comments and dead locals are added. Every edit
// stays on the line it starts on, so the line structure (and with it the
// position of every function the edit does not touch) is unchanged. That
// is what lets the incremental analyzer reuse untouched kernels, and what
// makes the correct answer to every op known before the run: a variant
// grades exactly like its reference.

// segKind classifies one lexical piece of a source line.
type segKind int

const (
	segOther segKind = iota
	segIdent
	segInt
	segFloat
	segComment // a // comment running to the end of the line
)

type seg struct {
	kind segKind
	text string
}

// splitLine cuts one code line into identifiers, numeric literals, a
// trailing // comment and everything else. The lab sources have no block
// comments, string or character literals, and the generator never adds
// any, so a line-local scan is exact.
func splitLine(line string) []seg {
	var out []seg
	i, n := 0, len(line)
	for i < n {
		c := line[i]
		switch {
		case c == '/' && i+1 < n && line[i+1] == '/':
			out = append(out, seg{segComment, line[i:]})
			return out
		case isIdentStart(c):
			j := i
			for j < n && isIdentByte(line[j]) {
				j++
			}
			out = append(out, seg{segIdent, line[i:j]})
			i = j
		case c >= '0' && c <= '9' || c == '.' && i+1 < n && line[i+1] >= '0' && line[i+1] <= '9':
			j := i
			for j < n && (isIdentByte(line[j]) || line[j] == '.') {
				if (line[j] == 'e' || line[j] == 'E') && j+1 < n && (line[j+1] == '+' || line[j+1] == '-') &&
					!strings.ContainsAny(line[i:j], "xX") {
					j++
				}
				j++
			}
			num := line[i:j]
			kind := segInt
			switch {
			case strings.ContainsAny(num, "xXuUlL"):
				kind = segOther // hex or suffixed: left as written
			case strings.ContainsAny(num, ".eEfF"):
				kind = segFloat
			}
			out = append(out, seg{kind, num})
			i = j
		default:
			j := i + 1
			for j < n && !isIdentStart(line[j]) && !(line[j] >= '0' && line[j] <= '9') && line[j] != '.' &&
				!(line[j] == '/' && j+1 < n && line[j+1] == '/') {
				j++
			}
			out = append(out, seg{segOther, line[i:j]})
			i = j
		}
	}
	return out
}

func isIdentStart(c byte) bool { return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' }
func isIdentByte(c byte) bool  { return isIdentStart(c) || c >= '0' && c <= '9' }

func joinSegs(segs []seg) string {
	var b strings.Builder
	for _, s := range segs {
		b.WriteString(s.text)
	}
	return b.String()
}

// declTypes are the scalar type words a local declaration starts with.
var declTypes = map[string]bool{
	"int": true, "float": true, "double": true, "char": true, "bool": true,
	"unsigned": true, "long": true, "short": true, "size_t": true,
}

// unit is a parsed source: its lines, which are preprocessor directives,
// the brace depth at the start of each line, and every identifier in it.
type unit struct {
	lines  []string
	direct []bool
	depth  []int
	idents map[string]bool
}

func parseUnit(src string) *unit {
	u := &unit{lines: strings.Split(src, "\n"), idents: map[string]bool{}}
	u.direct = make([]bool, len(u.lines))
	u.depth = make([]int, len(u.lines))
	d := 0
	for i, ln := range u.lines {
		u.depth[i] = d
		u.direct[i] = strings.HasPrefix(strings.TrimSpace(ln), "#")
		for _, s := range splitLine(ln) {
			switch s.kind {
			case segIdent:
				u.idents[s.text] = true
			case segOther:
				if !u.direct[i] {
					d += strings.Count(s.text, "{") - strings.Count(s.text, "}")
				}
			}
		}
	}
	return u
}

// locals returns the names declared as locals (inside a function body)
// on lines [from, to), in first-declaration order.
func (u *unit) locals(from, to int) []string {
	var out []string
	seen := map[string]bool{}
	for i := from; i < to; i++ {
		if u.direct[i] {
			continue
		}
		segs := nonSpace(splitLine(u.lines[i]))
		d := u.depth[i]
		for k, s := range segs {
			if s.kind == segOther {
				d += strings.Count(s.text, "{") - strings.Count(s.text, "}")
			}
			if d < 1 || s.kind != segIdent || !declTypes[s.text] || k+2 >= len(segs) {
				continue
			}
			name, next := segs[k+1], segs[k+2]
			if name.kind != segIdent || declTypes[name.text] {
				continue
			}
			if t := strings.TrimSpace(next.text); t == "" || !strings.ContainsAny(t[:1], "=;[,") {
				continue
			}
			if !seen[name.text] {
				seen[name.text] = true
				out = append(out, name.text)
			}
		}
	}
	return out
}

// nonSpace drops whitespace-only segments, so declaration patterns can be
// matched on adjacent tokens.
func nonSpace(segs []seg) []seg {
	out := segs[:0:0]
	for _, s := range segs {
		if strings.TrimSpace(s.text) != "" {
			out = append(out, s)
		}
	}
	return out
}

// kernels returns the [start, end) line range of every top-level function.
func (u *unit) kernels() [][2]int {
	var out [][2]int
	start := -1
	for i := range u.lines {
		if u.direct[i] {
			continue
		}
		if u.depth[i] == 0 && start < 0 && strings.Contains(u.lines[i], "(") {
			start = i
		}
		next := 0
		if i+1 < len(u.lines) {
			next = u.depth[i+1]
		}
		if start >= 0 && u.depth[i] > 0 && next == 0 {
			out = append(out, [2]int{start, i + 1})
			start = -1
		}
	}
	return out
}

// commentWords is the vocabulary of generated comments; none of them is
// on the sandbox blacklist, which the raw-mode scan applies to comments.
var commentWords = []string{
	"load", "tile", "bounds", "check", "sum", "partial", "stride", "index",
	"guard", "thread", "block", "halo", "row", "col", "step", "note",
	"keep", "coalesced", "shared", "result", "write", "accumulate", "edge",
}

// nameStems seed fresh identifiers; a suffix makes them unique.
var nameStems = []string{"idx", "pos", "acc", "lane", "off", "cnt", "val", "tmp", "run", "cur", "lo", "hi"}

// rewriter draws every edit from one seeded source.
type rewriter struct {
	rng  *rand.Rand
	used map[string]bool // identifiers already in the source or handed out
}

func newRewriter(rng *rand.Rand, u *unit) *rewriter {
	used := map[string]bool{}
	for id := range u.idents {
		used[id] = true
	}
	return &rewriter{rng: rng, used: used}
}

func (r *rewriter) freshName() string {
	blocked := map[string]bool{}
	for _, w := range sandbox.DefaultBlacklist {
		blocked[w] = true
	}
	for {
		name := fmt.Sprintf("%s_%s", nameStems[r.rng.Intn(len(nameStems))],
			strconv.FormatInt(int64(r.rng.Intn(36*36)), 36))
		if !r.used[name] && !blocked[name] {
			r.used[name] = true
			return name
		}
	}
}

func (r *rewriter) comment() string {
	n := 1 + r.rng.Intn(3)
	words := make([]string, n)
	for i := range words {
		words[i] = commentWords[r.rng.Intn(len(commentWords))]
	}
	return "// " + strings.Join(words, " ")
}

// intSpelling returns an equivalent spelling of a decimal literal.
func (r *rewriter) intSpelling(lit string) string {
	v, err := strconv.ParseInt(lit, 10, 64)
	if err != nil {
		return lit
	}
	if r.rng.Intn(2) == 0 {
		return fmt.Sprintf("0x%x", v)
	}
	return fmt.Sprintf("0x%X", v)
}

// floatSpelling returns an equivalent exponent-form spelling of a float
// literal, keeping its f suffix (and so its type).
func floatSpelling(lit string) string {
	body := strings.TrimRight(lit, "fF")
	v, err := strconv.ParseFloat(body, 64)
	if err != nil {
		return lit
	}
	return strconv.FormatFloat(v, 'e', -1, 64) + lit[len(body):]
}

// rewriteLine applies renames (never to a member after '.' or '->'),
// literal respellings with probability pLit, and an optional trailing
// comment; dead, when non-empty, is inserted after the line's last '{'.
func (r *rewriter) rewriteLine(line string, rename map[string]string, pLit float64, comment bool, dead string) string {
	segs := splitLine(line)
	prev := ""
	hasComment := false
	lastBrace := -1
	for i := range segs {
		s := &segs[i]
		switch s.kind {
		case segIdent:
			if nn, ok := rename[s.text]; ok && !strings.HasSuffix(prev, ".") && !strings.HasSuffix(prev, "->") {
				s.text = nn
			}
		case segInt:
			if r.rng.Float64() < pLit {
				s.text = r.intSpelling(s.text)
			}
		case segFloat:
			if r.rng.Float64() < pLit {
				s.text = floatSpelling(s.text)
			}
		case segComment:
			hasComment = true
		case segOther:
			if strings.Contains(s.text, "{") {
				lastBrace = i
			}
		}
		if t := strings.TrimSpace(s.text); t != "" {
			prev = t
		}
	}
	if dead != "" && lastBrace >= 0 {
		b := &segs[lastBrace]
		k := strings.LastIndex(b.text, "{") + 1
		b.text = b.text[:k] + " " + dead + b.text[k:]
	}
	out := joinSegs(segs)
	if comment && !hasComment && strings.TrimSpace(out) != "" {
		out += "  " + r.comment()
	}
	return out
}

// deadLocal returns a declaration nothing reads.
func (r *rewriter) deadLocal() string {
	return fmt.Sprintf("int %s = %d;", r.freshName(), r.rng.Intn(1000))
}

// Variant returns a seeded, semantics-preserving rewrite of src with the
// same number of lines.
func Variant(src string, rng *rand.Rand) string {
	u := parseUnit(src)
	r := newRewriter(rng, u)
	rename := map[string]string{}
	for _, name := range u.locals(0, len(u.lines)) {
		if rng.Float64() < 0.6 {
			rename[name] = r.freshName()
		}
	}
	out := make([]string, len(u.lines))
	for i, ln := range u.lines {
		if u.direct[i] {
			out[i] = ln
			continue
		}
		dead := ""
		if strings.HasSuffix(strings.TrimSpace(ln), "{") && rng.Float64() < 0.3 {
			dead = r.deadLocal()
		}
		out[i] = r.rewriteLine(ln, rename, 0.3, rng.Float64() < 0.25, dead)
	}
	return strings.Join(out, "\n")
}

// hppLabs returns the course's labs in catalog order; the benchmark is
// defined over exactly these eight.
func hppLabs() []*labs.Lab {
	ls := labs.ForCourse(labs.CourseHPP)
	if len(ls) != 8 {
		panic(fmt.Sprintf("perfbench: HPP course has %d labs, the workloads are defined over 8", len(ls)))
	}
	return ls
}

// draftTyping is one live-session edit sequence: a variant of a
// multi-kernel lab whose edits all land inside one kernel.
type draftTyping struct {
	lab    *labs.Lab
	kernel string // name of the kernel every edit touches
	u      *unit
	r      *rewriter
	lo, hi int // the kernel's line range
	marker string
}

// newDraftTyping starts a session on a variant of lab whose edits all
// land in the named kernel, planting a dead local there whose literal the
// edits retype.
func newDraftTyping(lab *labs.Lab, kernel string, rng *rand.Rand) *draftTyping {
	base := Variant(lab.Reference, rng)
	u := parseUnit(base)
	t := &draftTyping{lab: lab, kernel: kernel, u: u, r: newRewriter(rng, u)}
	for _, k := range u.kernels() {
		if kernelName(u.lines[k[0]]) == kernel {
			t.lo, t.hi = k[0], k[1]
		}
	}
	if t.hi == 0 {
		panic(fmt.Sprintf("perfbench: lab %s has no kernel %s", lab.ID, kernel))
	}
	// The kernel's first '{' outside a comment opens its body.
	for i := t.lo; i < t.hi && t.marker == ""; i++ {
		code := u.lines[i]
		if at := strings.Index(code, "//"); at >= 0 {
			code = code[:at]
		}
		if strings.Contains(code, "{") {
			t.marker = t.r.freshName()
			u.lines[i] = t.r.rewriteLine(u.lines[i], nil, 0, false,
				fmt.Sprintf("int %s = %d;", t.marker, rng.Intn(1000)))
		}
	}
	return t
}

func kernelName(line string) string {
	segs := splitLine(line)
	for i, s := range segs {
		if s.kind == segIdent && i+1 < len(segs) && strings.HasPrefix(segs[i+1].text, "(") {
			return s.text
		}
	}
	return ""
}

// Source returns the current draft text.
func (t *draftTyping) Source() string { return strings.Join(t.u.lines, "\n") }

// Edit applies one keystroke-sized change inside the kernel: retype the
// planted literal (half the time), rename one of the kernel's locals, or
// rewrite a trailing comment (which leaves the compiled kernel unchanged).
func (t *draftTyping) Edit() {
	rng := t.r.rng
	switch p := rng.Float64(); {
	case p < 0.5:
		for i := t.lo; i < t.hi; i++ {
			ln := t.u.lines[i]
			at := strings.Index(ln, "int "+t.marker+" = ")
			if at < 0 {
				continue
			}
			end := at + strings.Index(ln[at:], ";")
			t.u.lines[i] = ln[:at] + fmt.Sprintf("int %s = %d", t.marker, rng.Intn(1000)) + ln[end:]
			return
		}
	case p < 0.75:
		names := t.u.locals(t.lo, t.hi)
		var cands []string
		for _, n := range names {
			if n != t.marker {
				cands = append(cands, n)
			}
		}
		if len(cands) > 0 {
			old := cands[rng.Intn(len(cands))]
			rename := map[string]string{old: t.r.freshName()}
			for i := t.lo; i < t.hi; i++ {
				t.u.lines[i] = t.r.rewriteLine(t.u.lines[i], rename, 0, false, "")
			}
			return
		}
		fallthrough
	default:
		i := t.lo + rng.Intn(t.hi-t.lo)
		ln := t.u.lines[i]
		if at := strings.Index(ln, "//"); at >= 0 {
			ln = strings.TrimRight(ln[:at], " ")
		}
		if strings.TrimSpace(ln) == "" {
			ln = t.u.lines[i] // keep a comment-only line as it is
		} else {
			ln += "  " + t.r.comment()
		}
		t.u.lines[i] = ln
	}
}
