package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"webgpu/internal/labs"
)

// rngFor derives an independent, reproducible random source for one
// named stream of one op.
func rngFor(seed int64, stream string, i int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, stream, i)
	return rand.New(rand.NewSource(int64(h.Sum64() &^ (1 << 63))))
}

// op is one seeded user action: which lab, which source, and for the
// compile mix which cache path the source is meant to take.
type op struct {
	lab    *labs.Lab
	source string
	kind   string // compile-mix only: fresh | stored | repeat
}

// warmups returns one untimed op per lab.
func warmups(seed int64, ls []*labs.Lab) []op {
	out := make([]op, len(ls))
	for j, l := range ls {
		out[j] = op{lab: l, source: Variant(l.Reference, rngFor(seed, "warm", j))}
	}
	return out
}

// submitOps returns the first n submit-grade ops. Every block of eight
// consecutive ops covers the eight labs once, in a seeded order, so the
// lab mix (and with it the latency distribution) is the same for every
// seed and every run length; each op gets a fresh variant of its lab's
// reference.
func submitOps(seed int64, n int) []op {
	ls := hppLabs()
	out := make([]op, n)
	var perm []int
	for i := range out {
		rng := rngFor(seed, "submit", i)
		if i%len(ls) == 0 {
			perm = rngFor(seed, "submit-block", i/len(ls)).Perm(len(ls))
		}
		l := ls[perm[i%len(ls)]]
		out[i] = op{lab: l, source: Variant(l.Reference, rng)}
	}
	return out
}

// Compile-mix kinds and their shares of the op sequence.
const (
	kindFresh  = "fresh"  // never seen: real compile, analysis, two store puts
	kindStored = "stored" // put in the store by the set-up deployment: store get + decode
	kindRepeat = "repeat" // compiled earlier in this run: memory hit
)

// repeatWindow bounds how far back a repeat reaches, so repeats stay
// well inside the in-memory cache.
const repeatWindow = 64

// compileOps returns the first n compile-mix ops. Stored ops carry
// sources the set-up deployment put in the artifact store; storedSources
// lists them in op order.
func compileOps(seed int64, n int) (ops []op, storedSources []op) {
	ls := hppLabs()
	ops = make([]op, n)
	for i := range ops {
		rng := rngFor(seed, "compile", i)
		kind := []string{kindFresh, kindStored, kindRepeat}[rng.Intn(3)]
		if kind == kindRepeat && i == 0 {
			kind = kindFresh
		}
		if kind == kindRepeat {
			back := 1 + rng.Intn(min(i, repeatWindow))
			prev := ops[i-back]
			ops[i] = op{lab: prev.lab, source: prev.source, kind: kindRepeat}
			continue
		}
		l := ls[rng.Intn(len(ls))]
		ops[i] = op{lab: l, source: Variant(l.Reference, rng), kind: kind}
		if kind == kindStored {
			storedSources = append(storedSources, ops[i])
		}
	}
	return ops, storedSources
}

// Draft typing schedule. Most gaps are pauses well past the 20 ms
// debounce plus the analysis, so each such draft is analyzed on its own;
// one gap in seven is a burst short enough to land inside the previous
// draft's debounce window, which coalesces the two. No gap falls between,
// where a draft would cancel an analysis already running and the latency
// of the cancelled draft would depend on sub-millisecond timing. The mean
// gap is about 60 ms, under the per-session draft token bucket's
// sustained 50 ms, and the schedule is kept within the bucket so no push
// is refused.
const (
	draftBurstShare = 1.0 / 7
	draftBurstMin   = 4 * time.Millisecond
	draftBurstMax   = 12 * time.Millisecond
	draftPauseFloor = 45 * time.Millisecond
	draftPauseMean  = 25 * time.Millisecond // of the exponential part
	draftPauseMax   = 400 * time.Millisecond
	draftBurst      = 30                    // devsession.DefaultDraftBurst
	draftRefill     = 50 * time.Millisecond // devsession.DefaultDraftInterval
)

func draftGap(rng *rand.Rand) time.Duration {
	if rng.Float64() < draftBurstShare {
		return draftBurstMin + time.Duration(rng.Int63n(int64(draftBurstMax-draftBurstMin)))
	}
	gap := draftPauseFloor + time.Duration(rng.ExpFloat64()*float64(draftPauseMean))
	if gap > draftPauseMax {
		gap = draftPauseMax
	}
	return gap
}

// The live session edits the scan kernel of reduction-scan: the HPP lab
// with the most kernels (three), so the incremental engine has two to
// reuse on every draft, and the kernel whose analysis costs most. Fixing
// the lab and kernel keeps the analysis work the same for every seed; the
// seed drives the spelling of the source and the typing schedule.
const (
	draftLab    = "reduction-scan"
	draftKernel = "scan"
	draftMean   = 60 * time.Millisecond
)

// draftPlan is the draft-session input: the warm-up source and then one
// draft per scheduled keystroke burst, each due at its offset from the
// start of the timed window.
type draftPlan struct {
	lab    *labs.Lab
	kernel string
	warm   string
	due    []time.Duration
	drafts []string
}

// draftOps plans the drafts of a window: window/draftMean of them, with
// the pauses scaled so the last is due at exactly that many mean gaps,
// which gives every seed the same offered rate.
func draftOps(seed int64, window time.Duration) draftPlan {
	rng := rngFor(seed, "draft", 0)
	lab := labs.ByID(draftLab)
	t := newDraftTyping(lab, draftKernel, rng)
	p := draftPlan{lab: lab, kernel: t.kernel, warm: t.Source()}
	n := int(window / draftMean)
	gaps := make([]time.Duration, n)
	var bursts, pauses time.Duration
	for i := range gaps {
		gaps[i] = draftGap(rng)
		if gaps[i] < draftPauseFloor {
			bursts += gaps[i]
		} else {
			pauses += gaps[i]
		}
	}
	scale := float64(time.Duration(n)*draftMean-bursts) / float64(pauses)
	tokens := float64(draftBurst)
	var at time.Duration
	for _, gap := range gaps {
		if gap >= draftPauseFloor {
			gap = time.Duration(float64(gap) * scale)
		}
		tokens = min(float64(draftBurst), tokens+float64(gap)/float64(draftRefill))
		if tokens < 2 {
			// Stretch the gap until the bucket holds a spare token.
			gap += time.Duration((2 - tokens) * float64(draftRefill))
			tokens = 2
		}
		tokens--
		at += gap
		t.Edit()
		p.due = append(p.due, at)
		p.drafts = append(p.drafts, t.Source())
	}
	return p
}
