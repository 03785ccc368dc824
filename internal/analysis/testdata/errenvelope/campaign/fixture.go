// Package campaign is an errenvelope fixture, loaded as c3d/internal/campaign:
// API errors may only leave through the envelope helpers.
package campaign

import (
	"encoding/json"
	"net/http"
)

type errorEnvelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// writeJSON is an envelope helper: its WriteHeader takes the caller's
// status and is exempt even for constant arguments.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeError is the uniform error envelope: exempt.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	var env errorEnvelope
	env.Error.Code = code
	env.Error.Message = msg
	writeJSON(w, status, env)
}

// BadRawError uses http.Error: flagged.
func BadRawError(w http.ResponseWriter, r *http.Request) {
	http.Error(w, "nope", http.StatusBadRequest) // want "http.Error bypasses the error envelope"
}

// BadRawStatus writes a constant error status by hand: flagged.
func BadRawStatus(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusInternalServerError) // want "WriteHeader\\(500\\) writes an error status outside the envelope helpers"
	w.Write([]byte("boom"))
}

// GoodSuccessStatus writes a 2xx by hand, which is not an error path: clean.
func GoodSuccessStatus(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("{}"))
}

// GoodEnvelope goes through the helper: clean.
func GoodEnvelope(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusNotFound, "not_found", "unknown job")
}

// AllowedRawStatus serves a non-error document on an error status, with the
// justification in the directive: suppressed.
func AllowedRawStatus(w http.ResponseWriter, r *http.Request) {
	//c3dlint:allow errenvelope(body is a result document, not an error)
	w.WriteHeader(http.StatusUnprocessableEntity)
	w.Write([]byte("{}"))
}
