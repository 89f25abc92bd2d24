package stream

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// ev is a minimal stream.Event: name "end" is final.
type ev struct {
	Seq  int64
	Name string
}

func (e ev) Stamped(seq int64, _ time.Time) ev { e.Seq = seq; return e }
func (e ev) Frame() (int64, string, bool)      { return e.Seq, e.Name, e.Name == "end" }

func TestLogHistoryLiveAndFinal(t *testing.T) {
	l := NewLog[ev](3, 8, nil)
	for i := 0; i < 4; i++ {
		l.Emit(ev{Name: "tick"})
	}
	history, live, stop := l.Subscribe()
	defer stop()
	if len(history) != 3 || history[0].Seq != 2 || history[2].Seq != 4 {
		t.Fatalf("bounded history = %+v, want the newest 3 of 4", history)
	}
	l.Emit(ev{Name: "end"})
	if got := <-live; got.Seq != 5 || got.Name != "end" {
		t.Fatalf("live event = %+v", got)
	}
	if _, open := <-live; open {
		t.Fatal("a final event left the subscriber channel open")
	}
	stop() // safe after the final event closed the channel

	history, live, _ = l.Subscribe()
	if live != nil || history[len(history)-1].Name != "end" {
		t.Fatalf("subscribe after the end: live=%v history=%+v", live, history)
	}
}

func TestServeResumesAfterLastEventID(t *testing.T) {
	history := []ev{{1, "a"}, {2, "b"}, {3, "end"}}
	for name, set := range map[string]func(*http.Request){
		"header": func(r *http.Request) { r.Header.Set("Last-Event-ID", "1") },
		"query":  func(r *http.Request) { r.URL.RawQuery = "last_event_id=1" },
	} {
		r := httptest.NewRequest(http.MethodGet, "/events", nil)
		set(r)
		w := httptest.NewRecorder()
		Serve(w, r, history, nil, nil)
		if ct := w.Header().Get("Content-Type"); ct != "text/event-stream" {
			t.Fatalf("%s: Content-Type %q", name, ct)
		}
		var ids []string
		sc := bufio.NewScanner(w.Body)
		for sc.Scan() {
			if id, ok := strings.CutPrefix(sc.Text(), "id: "); ok {
				ids = append(ids, id)
			}
		}
		if strings.Join(ids, ",") != "2,3" {
			t.Fatalf("%s: resumed ids %v, want 2,3", name, ids)
		}
	}
}
