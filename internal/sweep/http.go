package sweep

import (
	"errors"
	"net/http"
	"strings"

	"hwgc"
	"hwgc/internal/httpjson"
	"hwgc/internal/jobs"
	"hwgc/internal/plan"
	"hwgc/internal/stream"
)

// maxBodyBytes bounds a POST /v1/sweeps body, matching the other endpoints.
const maxBodyBytes = 8 << 20

// submitBody is the POST /v1/sweeps request: the space to explore plus an
// optional job priority class for its points.
type submitBody struct {
	Space *hwgc.SweepSpace
	Class string `json:",omitempty"`
}

// Mount registers the sweep HTTP surface on mux: POST /v1/sweeps,
// GET/DELETE /v1/sweeps/{id} and GET /v1/sweeps/{id}/events. gcserved and
// gcfleet mount the same handlers. admit, when non-nil, vets each canonical
// space before submission; its error is the 400 body. wrap, when non-nil,
// decorates each route's handler under a low-cardinality route label (the
// sweep ID is never part of the label).
func (c *Coordinator) Mount(mux *http.ServeMux, admit func(*hwgc.SweepSpace) error, wrap func(route string, h http.HandlerFunc) http.HandlerFunc) {
	if wrap == nil {
		wrap = func(_ string, h http.HandlerFunc) http.HandlerFunc { return h }
	}
	mux.HandleFunc("/v1/sweeps", wrap("/v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		c.serveSubmit(w, r, admit)
	}))
	info := wrap("/v1/sweeps/{id}", c.serveSweep)
	events := wrap("/v1/sweeps/{id}/events", c.serveEvents)
	mux.HandleFunc("/v1/sweeps/", func(w http.ResponseWriter, r *http.Request) {
		id, sub, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/v1/sweeps/"), "/")
		r.SetPathValue("id", id)
		switch {
		case id == "" || strings.Contains(sub, "/"):
			httpjson.Error(w, http.StatusNotFound, "no such resource %s", r.URL.Path)
		case sub == "":
			info(w, r)
		case sub == "events":
			events(w, r)
		default:
			httpjson.Error(w, http.StatusNotFound, "no such resource %s", r.URL.Path)
		}
	})
}

// serveSubmit serves POST /v1/sweeps. Submissions are idempotent: the sweep
// ID is the content address of the canonical space, so resubmitting an
// identical space returns the existing sweep (200) with zero new jobs
// instead of planning a new one (202).
func (c *Coordinator) serveSubmit(w http.ResponseWriter, r *http.Request, admit func(*hwgc.SweepSpace) error) {
	if !httpjson.Method(w, r, http.MethodPost) {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var body submitBody
	if err := plan.DecodeStrict(r.Body, &body); err != nil {
		httpjson.Error(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if body.Space == nil {
		httpjson.Error(w, http.StatusBadRequest, "Space must be set")
		return
	}
	if err := body.Space.Canonicalize(); err != nil {
		httpjson.Error(w, http.StatusBadRequest, "invalid sweep space: %v", err)
		return
	}
	if admit != nil {
		if err := admit(body.Space); err != nil {
			httpjson.Error(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	info, accepted, err := c.Submit(body.Space, body.Class)
	switch {
	case errors.Is(err, ErrUnknownClass):
		httpjson.Error(w, http.StatusBadRequest, "unknown job class %q", body.Class)
		return
	case errors.Is(err, jobs.ErrDraining):
		httpjson.Error(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	case err != nil:
		httpjson.Error(w, http.StatusInternalServerError, "submitting sweep: %v", err)
		return
	}
	code := http.StatusOK // deduped onto an existing sweep
	if accepted {
		code = http.StatusAccepted
	}
	w.Header().Set("Location", "/v1/sweeps/"+info.ID)
	httpjson.Write(w, code, info)
}

// serveSweep serves GET (progress) and DELETE (cancel) on /v1/sweeps/{id}.
func (c *Coordinator) serveSweep(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	switch r.Method {
	case http.MethodGet:
		info, err := c.Get(id)
		if err != nil {
			httpjson.Error(w, http.StatusNotFound, "no such sweep %q", id)
			return
		}
		httpjson.Write(w, http.StatusOK, info)
	case http.MethodDelete:
		info, err := c.Cancel(id)
		switch {
		case errors.Is(err, ErrNotFound):
			httpjson.Error(w, http.StatusNotFound, "no such sweep %q", id)
		case errors.Is(err, ErrTerminal):
			httpjson.Error(w, http.StatusConflict, "sweep %s is already %s", id, info.State)
		case err != nil:
			httpjson.Error(w, http.StatusInternalServerError, "cancelling sweep: %v", err)
		default:
			httpjson.Write(w, http.StatusOK, info)
		}
	default:
		w.Header().Set("Allow", "GET, DELETE")
		httpjson.Error(w, http.StatusMethodNotAllowed, "%s requires GET or DELETE", r.URL.Path)
	}
}

// serveEvents streams a sweep's progress as Server-Sent Events until the
// sweep finishes, the client disconnects or the coordinator closes.
func (c *Coordinator) serveEvents(w http.ResponseWriter, r *http.Request) {
	if !httpjson.Method(w, r, http.MethodGet) {
		return
	}
	id := r.PathValue("id")
	history, live, stop, err := c.Subscribe(id)
	if err != nil {
		httpjson.Error(w, http.StatusNotFound, "no such sweep %q", id)
		return
	}
	defer stop()
	stream.Serve(w, r, history, live, c.ctx.Done())
}
