package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// client is one authenticated student talking to the web tier over HTTP.
type client struct {
	base  string
	token string
	http  *http.Client
}

// apiError is the error envelope of every non-2xx response.
type apiError struct {
	Error struct {
		Code string `json:"code"`
	} `json:"error"`
}

// reply is one HTTP exchange: status, error code (non-2xx only), body.
type reply struct {
	status int
	code   string
	body   []byte
}

func (r reply) ok() bool { return r.status >= 200 && r.status < 300 }

func (r reply) String() string {
	if r.code != "" {
		return fmt.Sprintf("status %d (%s)", r.status, r.code)
	}
	return fmt.Sprintf("status %d", r.status)
}

func (c *client) do(method, path string, body interface{}) (reply, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return reply{}, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	r := reply{status: resp.StatusCode, body: data}
	if !r.ok() {
		var ae apiError
		if json.Unmarshal(data, &ae) == nil {
			r.code = ae.Error.Code
		}
	}
	return r, nil
}

// register creates a student account and returns its client.
func register(base string, hc *http.Client, name string) (*client, error) {
	c := &client{base: base, http: hc}
	r, err := c.do("POST", "/api/v1/register", map[string]string{
		"name": name, "email": name + "@perfbench.invalid",
	})
	if err != nil {
		return nil, err
	}
	if r.status != http.StatusCreated {
		return nil, fmt.Errorf("register %s: %v", name, r)
	}
	var out struct {
		Token string `json:"token"`
	}
	if err := json.Unmarshal(r.body, &out); err != nil {
		return nil, fmt.Errorf("register %s: %w", name, err)
	}
	c.token = out.Token
	return c, nil
}

// sseEvent is one server-sent event as received, stamped on arrival.
type sseEvent struct {
	Seq  int64           `json:"seq"`
	Type string          `json:"type"`
	Data json.RawMessage `json:"data"`
	at   time.Time
}

// stream reads a session's event stream until ctx is cancelled or the
// server ends it, handing every event to fn as it arrives.
func (c *client) stream(ctx context.Context, path string, fn func(sseEvent)) error {
	req, err := http.NewRequestWithContext(ctx, "GET", c.base+path, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+c.token)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("event stream: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	var data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if data != "" {
				var ev sseEvent
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					return fmt.Errorf("event stream: %w", err)
				}
				ev.at = time.Now()
				fn(ev)
			}
			data = ""
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		}
	}
	if ctx.Err() != nil {
		return nil
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return nil
}
