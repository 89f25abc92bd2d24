// Package httpjson holds the JSON reply helpers gcserved, gcfleet and the
// sweep handlers share, so every tier answers in the same envelope.
package httpjson

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// Write serves v as indented JSON under status code.
func Write(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Error writes the {"Error": ...} envelope every non-2xx reply carries.
func Error(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(struct{ Error string }{fmt.Sprintf(format, args...)})
}

// Method reports whether r uses method, answering 405 with an Allow header
// when it does not.
func Method(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method == method {
		return true
	}
	w.Header().Set("Allow", method)
	Error(w, http.StatusMethodNotAllowed, "%s requires %s", r.URL.Path, method)
	return false
}
