package overload_test

import (
	"strconv"
	"testing"
	"time"

	"webgpu/internal/devsession"
	"webgpu/internal/overload"
	"webgpu/internal/sandbox"
)

// TestBucketsSubmitInterval: a burst-1 table is the §III-C minimum
// interval between one user's submissions.
func TestBucketsSubmitInterval(t *testing.T) {
	tb := overload.NewBuckets(1, 10*time.Second)
	now := time.Unix(1000, 0)
	if _, ok := tb.Take("alice", now); !ok {
		t.Fatal("first submit denied")
	}
	if wait, ok := tb.Take("alice", now); ok || wait != 10*time.Second {
		t.Fatalf("immediate resubmit = (%v, %v), want denied with 10s wait", wait, ok)
	}
	// A different user is unaffected.
	if _, ok := tb.Take("bob", now); !ok {
		t.Fatal("other user denied")
	}
	now = now.Add(11 * time.Second)
	if _, ok := tb.Take("alice", now); !ok {
		t.Fatal("submit after the interval denied")
	}
}

// TestBucketsIntervalIsExact: denied attempts in between neither delay
// nor advance the next admission; it comes exactly one interval after
// the last one, however many calls the refill was spread over.
func TestBucketsIntervalIsExact(t *testing.T) {
	tb := overload.NewBuckets(1, 10*time.Second)
	now := time.Unix(0, 0)
	var admitted []int
	for i := 0; i < 60; i++ {
		if _, ok := tb.Take("abuser", now); ok {
			admitted = append(admitted, i)
		}
		now = now.Add(time.Second)
	}
	want := []int{0, 10, 20, 30, 40, 50}
	if len(admitted) != len(want) {
		t.Fatalf("admitted at %v, want %v", admitted, want)
	}
	for i := range want {
		if admitted[i] != want[i] {
			t.Fatalf("admitted at %v, want %v", admitted, want)
		}
	}
}

// TestBucketsCapSweepsIdleKeys: at MaxBuckets keys, inserting a new key
// sweeps every refilled bucket, and a dry one keeps its state.
func TestBucketsCapSweepsIdleKeys(t *testing.T) {
	for _, tc := range []struct {
		name     string
		burst    int
		interval time.Duration
	}{
		{"submit-interval", 1, sandbox.DefaultLimits().SubmitInterval},
		{"draft-budget", devsession.DefaultDraftBurst, devsession.DefaultDraftInterval},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb := overload.NewBuckets(tc.burst, tc.interval)
			t0 := time.Unix(1000, 0)
			for i := 0; i < overload.MaxBuckets-1; i++ {
				if _, ok := tb.Take("user-"+strconv.Itoa(i), t0); !ok {
					t.Fatalf("key %d denied its first token", i)
				}
			}
			t1 := t0.Add(time.Duration(tc.burst) * tc.interval)
			for i := 0; i < tc.burst; i++ {
				if _, ok := tb.Take("dry", t1); !ok {
					t.Fatalf("dry key denied token %d of its burst", i)
				}
			}
			if n := tb.Len(); n != overload.MaxBuckets {
				t.Fatalf("below the cap: %d keys, want %d", n, overload.MaxBuckets)
			}
			if _, ok := tb.Take("new", t1); !ok {
				t.Fatal("new key denied")
			}
			if n := tb.Len(); n != 2 {
				t.Fatalf("after the sweep: %d keys, want 2 (dry and new)", n)
			}
			if wait, ok := tb.Take("dry", t1); ok || wait != tc.interval {
				t.Fatalf("dry key after the sweep = (%v, %v), want denied with %v wait", wait, ok, tc.interval)
			}
		})
	}
}
