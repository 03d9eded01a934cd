package trace

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"webgpu/internal/metrics"
)

func TestNilSafety(t *testing.T) {
	var tr *Trace
	if tr.ID() != "" {
		t.Errorf("nil trace ID = %q", tr.ID())
	}
	sp := Start(tr, nil, "x", "k", "v")
	sp.SetAttr("a", "b")
	sp.End()
	sp.EndAttrs("c", "d")
	tr.Add(Span{Name: "y"})
	tr.AddAll([]Span{{Name: "z"}})
	tr.Finish()
	if got := tr.Spans(); got != nil {
		t.Errorf("nil trace spans = %v", got)
	}
	if d := tr.Snapshot(); d.ID != "" || len(d.Spans) != 0 {
		t.Errorf("nil trace snapshot = %+v", d)
	}
	var st *Store
	st.Track(New("tr-x"))
	if st.Get("tr-x") != nil || st.Len() != 0 || st.Recent(1) != nil {
		t.Error("nil store misbehaved")
	}
}

func TestSpanRecording(t *testing.T) {
	tr := New("tr-1")
	sp := Start(tr, nil, "compile", "cache", "miss")
	time.Sleep(time.Millisecond)
	sp.SetAttr("image", "cuda")
	sp.End()
	Start(tr, nil, "grade").EndAttrs("correct", "true")
	tr.AddAll([]Span{{Name: "exec", Dur: 5 * time.Millisecond}})
	tr.Finish()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	if spans[0].Name != "compile" || spans[0].Attrs["cache"] != "miss" || spans[0].Attrs["image"] != "cuda" {
		t.Errorf("compile span = %+v", spans[0])
	}
	if spans[0].Dur <= 0 {
		t.Errorf("compile span has no duration: %+v", spans[0])
	}
	if spans[1].Attrs["correct"] != "true" {
		t.Errorf("grade span = %+v", spans[1])
	}
	d := tr.Snapshot()
	if !d.Finished || d.ID != "tr-1" || len(d.Spans) != 3 || d.Dur <= 0 {
		t.Errorf("snapshot = %+v", d)
	}
}

// TestStartTimesOnce: one End feeds the span and the stage histogram
// the same duration, and either sink may be absent.
func TestStartTimesOnce(t *testing.T) {
	tr, reg := New("tr-1"), metrics.NewRegistry()
	sp := Start(tr, reg, "compile", "cache", "miss")
	time.Sleep(time.Millisecond)
	d := sp.EndAttrs("ok", "true")
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Name != "compile" || spans[0].Dur != d || d <= 0 {
		t.Fatalf("End = %v, spans = %+v", d, spans)
	}
	if spans[0].Attrs["cache"] != "miss" || spans[0].Attrs["ok"] != "true" {
		t.Errorf("attrs = %v", spans[0].Attrs)
	}
	h := reg.Hist("stage_compile_ms")
	if h == nil || h.Count() != 1 || h.Sum() != float64(d)/float64(time.Millisecond) {
		t.Fatalf("stage_compile_ms does not hold the span's %v", d)
	}

	// A nil trace still observes.
	if d := Start(nil, reg, "exec").End(); d <= 0 || reg.Hist("stage_exec_ms") == nil {
		t.Errorf("untraced stage: End = %v, no stage_exec_ms sample", d)
	}
	// A nil registry still records the span.
	tr2 := New("tr-2")
	if d := Start(tr2, nil, "grade").End(); len(tr2.Spans()) != 1 || tr2.Spans()[0].Dur != d {
		t.Errorf("unmetered stage: End = %v, spans = %+v", d, tr2.Spans())
	}
	// Both nil records nothing.
	Start(nil, nil, "scan", "k", "v").EndAttrs("rejected", "false")
}

func TestStoreRingEviction(t *testing.T) {
	st := NewStore(3)
	var ids []string
	for i := 0; i < 5; i++ {
		ids = append(ids, st.NewTrace().ID())
	}
	if st.Len() != 3 {
		t.Fatalf("len = %d, want 3", st.Len())
	}
	for _, id := range ids[:2] {
		if st.Get(id) != nil {
			t.Errorf("evicted trace %s still retrievable", id)
		}
	}
	for _, id := range ids[2:] {
		if st.Get(id) == nil {
			t.Errorf("recent trace %s lost", id)
		}
	}
	recent := st.Recent(2)
	if len(recent) != 2 || recent[0].ID != ids[4] || recent[1].ID != ids[3] {
		t.Errorf("recent = %+v, want newest first", recent)
	}
}

func TestNewIDUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewID()
		if seen[id] {
			t.Fatalf("duplicate id %s", id)
		}
		seen[id] = true
	}
}

// TestConcurrentUse exercises trace + store under -race.
func TestConcurrentUse(t *testing.T) {
	st := NewStore(8)
	tr := st.NewTrace()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				Start(tr, nil, fmt.Sprintf("s%d-%d", g, i)).End()
				st.NewTrace()
				st.Recent(4)
				_ = tr.Snapshot()
			}
		}(g)
	}
	wg.Wait()
	if got := len(tr.Spans()); got != 400 {
		t.Errorf("spans = %d, want 400", got)
	}
}
