// Package stream carries replayable event streams: a bounded event log with
// live subscribers, and the Server-Sent Events writer that serves one over
// HTTP with Last-Event-ID resume. Job lifecycles and sweep progress both
// stream through it.
package stream

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"hwgc/internal/httpjson"
)

// Event is the contract a Log's element type E satisfies.
type Event[E any] interface {
	// Stamped returns a copy of the event placed at stream position seq,
	// emitted at the given time.
	Stamped(seq int64, at time.Time) E
	// Frame returns the event's SSE id and event name, and whether it ends
	// the stream.
	Frame() (id int64, name string, final bool)
}

// Log is one stream's bounded event history plus its live subscribers.
// Delivery is best-effort: a subscriber that stops draining loses events
// rather than blocking the emitter, and older events fall out of the replay
// history once it holds capacity entries.
type Log[E Event[E]] struct {
	mu       sync.Mutex
	seq      int64
	ring     []E // newest capacity events, in order
	subs     map[chan E]struct{}
	done     bool // a final event was emitted: new subscribers get no channel
	capacity int
	buffer   int
	clock    func() time.Time
}

// NewLog returns an empty log replaying up to capacity events, giving each
// subscriber a channel of buffer entries, and stamping events with clock
// (nil selects time.Now).
func NewLog[E Event[E]](capacity, buffer int, clock func() time.Time) *Log[E] {
	if clock == nil {
		clock = time.Now
	}
	return &Log[E]{subs: make(map[chan E]struct{}), capacity: capacity, buffer: buffer, clock: clock}
}

// Emit stamps ev with the next sequence number and the current time,
// records it and fans it out. A final event closes every subscriber channel
// after delivery.
func (l *Log[E]) Emit(ev E) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	ev = ev.Stamped(l.seq, l.clock())
	l.ring = append(l.ring, ev)
	if len(l.ring) > l.capacity {
		l.ring = l.ring[len(l.ring)-l.capacity:]
	}
	for ch := range l.subs {
		select {
		case ch <- ev:
		default: // slow subscriber: drop
		}
	}
	if _, _, final := ev.Frame(); final {
		l.done = true
		for ch := range l.subs {
			close(ch)
			delete(l.subs, ch)
		}
	}
}

// Subscribe returns the replayable history, a live channel (nil once the
// stream has ended — the history then already ends in the final event) and
// a stop function that detaches the channel. stop is safe to call after a
// final event closed the channel.
func (l *Log[E]) Subscribe() (history []E, live <-chan E, stop func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	history = append([]E(nil), l.ring...)
	if l.done {
		return history, nil, func() {}
	}
	ch := make(chan E, l.buffer)
	l.subs[ch] = struct{}{}
	return history, ch, func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		if _, ok := l.subs[ch]; ok {
			delete(l.subs, ch)
			close(ch)
		}
	}
}

// Serve streams history and then live as Server-Sent Events until a final
// event, the client disconnecting, or done closing (a draining server: the
// history is replayable, so a reconnecting client misses nothing). Every
// frame carries the event's id and name and its JSON as data. A client
// resumes after the id in its Last-Event-ID header, with ?last_event_id= as
// a curl-friendly fallback.
func Serve[E Event[E]](w http.ResponseWriter, r *http.Request, history []E, live <-chan E, done <-chan struct{}) {
	fl, ok := w.(http.Flusher)
	if !ok {
		httpjson.Error(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	resumeFrom := lastEventID(r)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	// write emits one frame and reports whether the stream is over (a final
	// event, or a dead connection).
	write := func(ev E) bool {
		id, name, final := ev.Frame()
		data, err := json.Marshal(ev)
		if err != nil {
			return true
		}
		if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", id, name, data); err != nil {
			return true
		}
		fl.Flush()
		return final
	}
	for _, ev := range history {
		if id, _, _ := ev.Frame(); id <= resumeFrom {
			continue
		}
		if write(ev) {
			return
		}
	}
	if live == nil {
		return
	}
	for {
		select {
		case ev, ok := <-live:
			if !ok || write(ev) {
				return
			}
		case <-r.Context().Done():
			return
		case <-done:
			return
		}
	}
}

// lastEventID extracts the resume position; zero means "from the start".
func lastEventID(r *http.Request) int64 {
	v := r.Header.Get("Last-Event-ID")
	if v == "" {
		v = r.URL.Query().Get("last_event_id")
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n < 0 {
		return 0
	}
	return n
}
