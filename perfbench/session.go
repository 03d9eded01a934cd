package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"webgpu/internal/devsession"
	"webgpu/internal/labs"
)

// liveSession is one student's live development session seen from the
// browser's side: drafts go up as POSTs, events come back on the SSE
// stream and are kept, stamped with their arrival time.
type liveSession struct {
	c        *client
	draftURL string

	mu      sync.Mutex
	events  []sseEvent
	changed chan struct{} // closed and replaced on every arrival

	cancel context.CancelFunc
	done   chan error
}

func openSession(d *deployment, c *client, lab *labs.Lab) (*liveSession, error) {
	r, err := c.do("POST", "/api/v1/labs/"+lab.ID+"/session", nil)
	if err != nil {
		return nil, err
	}
	if r.status != http.StatusCreated {
		return nil, fmt.Errorf("open session: %v", r)
	}
	var out struct {
		EventsURL string `json:"events_url"`
		DraftURL  string `json:"draft_url"`
	}
	if err := json.Unmarshal(r.body, &out); err != nil {
		return nil, fmt.Errorf("open session: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &liveSession{
		c:        c,
		draftURL: out.DraftURL,
		changed:  make(chan struct{}),
		cancel:   cancel,
		done:     make(chan error, 1),
	}
	sc := &client{base: c.base, token: c.token, http: d.sse}
	go func() {
		s.done <- sc.stream(ctx, out.EventsURL, s.add)
	}()
	return s, nil
}

func (s *liveSession) add(ev sseEvent) {
	s.mu.Lock()
	s.events = append(s.events, ev)
	close(s.changed)
	s.changed = make(chan struct{})
	s.mu.Unlock()
}

// push posts one draft and returns the sequence number the server gave it.
func (s *liveSession) push(source string) (int64, reply, error) {
	r, err := s.c.do("POST", s.draftURL, map[string]string{"source": source})
	if err != nil || r.status != http.StatusAccepted {
		return 0, r, err
	}
	var out struct {
		Draft int64 `json:"draft"`
	}
	if err := json.Unmarshal(r.body, &out); err != nil {
		return 0, r, fmt.Errorf("draft reply: %w", err)
	}
	return out.Draft, r, nil
}

// firstDiag returns the first diagnostics event covering draft seq (its
// own, or a later draft's that superseded it), waiting up to timeout.
func (s *liveSession) firstDiag(seq int64, timeout time.Duration) (sseEvent, devsession.DiagnosticsPayload, bool) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	seen := 0
	for {
		s.mu.Lock()
		evs, changed := s.events, s.changed
		s.mu.Unlock()
		for ; seen < len(evs); seen++ {
			ev := evs[seen]
			if ev.Type != devsession.EventDiagnostics {
				continue
			}
			var p devsession.DiagnosticsPayload
			if json.Unmarshal(ev.Data, &p) == nil && p.Draft >= seq {
				return ev, p, true
			}
		}
		select {
		case <-changed:
		case <-deadline.C:
			return sseEvent{}, devsession.DiagnosticsPayload{}, false
		}
	}
}

// snapshot returns every event received so far.
func (s *liveSession) snapshot() []sseEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]sseEvent(nil), s.events...)
}

// close ends the stream and waits for its reader to return.
func (s *liveSession) close() error {
	s.cancel()
	return <-s.done
}
