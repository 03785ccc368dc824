package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"c3d/pkg/c3d"
	"c3d/pkg/c3d/api"
)

// List pagination bounds for GET /v1/jobs and GET /v1/campaigns.
const (
	defaultListLimit = 100
	maxListLimit     = 1000
)

// Handler returns the engine's HTTP API. Both modes serve
//
//	GET    /healthz                   liveness + version + scheduler counters (+ fleet and cache on a coordinator)
//	GET    /v1/capabilities           designs, topologies, experiments, workloads, version
//
// A worker node adds the job routes:
//
//	POST   /v1/jobs                   submit an api.JobSpec -> api.SubmitResponse
//	GET    /v1/jobs                   list job statuses (paginated: ?offset=&limit=)
//	GET    /v1/jobs/{id}              one job's status
//	GET    /v1/jobs/{id}/events       progress stream as JSON lines (replays, then follows)
//	GET    /v1/jobs/{id}/result       the finished job's result document
//	DELETE /v1/jobs/{id}              cancel a queued or running job
//
// and a coordinator the campaign routes:
//
//	POST   /v1/campaigns              submit an api.CampaignSpec -> api.SubmitResponse
//	GET    /v1/campaigns              list campaign statuses (paginated: ?offset=&limit=)
//	GET    /v1/campaigns/{id}         one campaign's status
//	GET    /v1/campaigns/{id}/results per-job result documents, in submission order
//	DELETE /v1/campaigns/{id}         cancel a campaign
//
// Every error response is the uniform api.ErrorEnvelope with a
// machine-readable code; campaign admission rejections answer 429 with code
// rate_limited.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Health())
	})
	mux.HandleFunc("GET /v1/capabilities", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.caps)
	})
	if c.fleet == nil {
		mux.HandleFunc("POST /v1/jobs", c.handleSubmitJob)
		mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, c.jobPage(listWindow(r)))
		})
		mux.HandleFunc("GET /v1/jobs/{id}", c.handleJob(func(w http.ResponseWriter, r *http.Request, j *job) {
			writeJSON(w, http.StatusOK, j.statusDoc())
		}))
		mux.HandleFunc("GET /v1/jobs/{id}/events", c.handleJob(handleEvents))
		mux.HandleFunc("GET /v1/jobs/{id}/result", c.handleJob(handleResult))
		mux.HandleFunc("DELETE /v1/jobs/{id}", c.handleJob(func(w http.ResponseWriter, r *http.Request, j *job) {
			j.requestCancel(context.Canceled)
			writeJSON(w, http.StatusOK, api.SubmitResponse{ID: j.id, State: j.state()})
		}))
		return mux
	}
	mux.HandleFunc("POST /v1/campaigns", c.handleSubmit)
	mux.HandleFunc("GET /v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.List(listWindow(r)))
	})
	mux.HandleFunc("GET /v1/campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := c.Status(r.PathValue("id"))
		respond(w, http.StatusOK, st, err)
	})
	mux.HandleFunc("GET /v1/campaigns/{id}/results", c.handleResults)
	mux.HandleFunc("DELETE /v1/campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := c.Cancel(r.PathValue("id"))
		respond(w, http.StatusOK, st, err)
	})
	return mux
}

func (c *Coordinator) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var spec api.JobSpec
	if !decodeSpec(w, r, "job", &spec) {
		return
	}
	if err := c3d.ValidateJobSpec(spec); err != nil {
		writeError(w, apiError(http.StatusBadRequest, api.CodeInvalidSpec, "%v", err))
		return
	}
	j, err := c.submitJob(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, api.SubmitResponse{ID: j.id, State: j.state()})
}

// handleJob adapts a handler for one /v1/jobs/{id} route, answering 404
// itself when the job is unknown.
func (c *Coordinator) handleJob(h func(http.ResponseWriter, *http.Request, *job)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, err := find(c, &c.jobs, "job", r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		h(w, r, j)
	}
}

func handleResult(w http.ResponseWriter, r *http.Request, j *job) {
	state, result, errMsg := j.outcome()
	switch {
	case state == api.StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(result)
	case state == api.StateFailed && len(result) > 0:
		// A failed job can still carry a result document — a verification
		// that found violations stores its reports, which is how clients see
		// exactly which invariant broke. Serve it with the job's error in a
		// header so failure stays distinguishable from success.
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-C3D-Job-Error", errMsg)
		//c3dlint:allow errenvelope(body is the verification result document, not an error; the job error travels in the X-C3D-Job-Error header)
		w.WriteHeader(http.StatusUnprocessableEntity)
		w.Write(result)
	case api.Terminal(state):
		writeError(w, apiError(http.StatusConflict, api.CodeConflict, "job %s %s: %s", j.id, state, errMsg))
	default:
		writeError(w, apiError(http.StatusConflict, api.CodeConflict, "job %s is %s; poll the status or events endpoint", j.id, state))
	}
}

// handleEvents streams the job's progress as JSON lines: everything recorded
// so far immediately, then live events until the job reaches a terminal
// state or the client disconnects. The final line is always the terminal
// status marker.
func handleEvents(w http.ResponseWriter, r *http.Request, j *job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	next := 0
	for {
		lines, state, notify := j.eventsSince(next)
		for _, line := range lines {
			if _, err := w.Write(line); err != nil {
				return
			}
		}
		next += len(lines)
		if len(lines) > 0 && flusher != nil {
			flusher.Flush()
		}
		if api.Terminal(state) {
			return
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		}
	}
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec api.CampaignSpec
	if !decodeSpec(w, r, "campaign", &spec) {
		return
	}
	resp, err := c.Submit(spec)
	respond(w, http.StatusAccepted, resp, err)
}

// handleResults serialises the results envelope by hand: the per-job result
// documents must reach the client byte-for-byte as the workers produced them
// (the whole point of deterministic assembly), and an indenting encoder
// would reformat the embedded raw documents. json.RawMessage round-trips
// verbatim through json.Unmarshal on the client side.
func (c *Coordinator) handleResults(w http.ResponseWriter, r *http.Request) {
	res, err := c.Results(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "{\"id\":%q,\"results\":[", res.ID)
	for i, doc := range res.Results {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.Write(doc)
	}
	buf.WriteString("]}\n")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes())
}

// listWindow reads a list request's ?offset=&limit=. Both are clamped,
// never rejected — a list request is always answerable: a missing or bad
// limit is the default, and the table clamps the offset.
func listWindow(r *http.Request) (offset, limit int) {
	q := r.URL.Query()
	offset, _ = strconv.Atoi(q.Get("offset"))
	limit, err := strconv.Atoi(q.Get("limit"))
	if err != nil || limit <= 0 {
		limit = defaultListLimit
	}
	return offset, min(limit, maxListLimit)
}

// decodeSpec strictly decodes a submission body into spec, answering 400
// invalid_spec itself when it does not decode.
func decodeSpec(w http.ResponseWriter, r *http.Request, what string, spec any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(spec); err != nil {
		writeError(w, apiError(http.StatusBadRequest, api.CodeInvalidSpec, "decoding %s spec: %v", what, err))
		return false
	}
	return true
}

// respond writes v with code, or err through the envelope.
func respond(w http.ResponseWriter, code int, v any, err error) {
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, code, v)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// apiError builds the *api.Error every rejection carries: the envelope's
// code and message plus the HTTP status writeError answers with.
func apiError(status int, code, format string, args ...any) *api.Error {
	return &api.Error{Code: code, Message: fmt.Sprintf(format, args...), HTTPStatus: status}
}

// writeError emits the uniform error envelope every non-2xx response uses:
// {"error": {"code": ..., "message": ...}}. Clients branch on the code; the
// status comes from the *api.Error.
func writeError(w http.ResponseWriter, err error) {
	var apiErr *api.Error
	if !errors.As(err, &apiErr) {
		apiErr = apiError(http.StatusInternalServerError, api.CodeInternal, "%v", err)
	}
	status := apiErr.HTTPStatus
	if status == 0 {
		status = http.StatusInternalServerError
	}
	writeJSON(w, status, api.ErrorEnvelope{Error: apiErr})
}
