package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
)

// HTTP protocol. All bodies are JSON except entry uploads, whose body is
// the raw encoded entry (it already is a self-validating JSON envelope).
//
//	GET  /v1/spec?worker=ID           -> Spec
//	POST /v1/lease     {"worker":ID}  -> Lease (long-poll)
//	POST /v1/heartbeat {"worker":ID,"lease":ID}
//	                                  -> 200 {"done":bool}
//	                                     410 expired/unknown lease
//	PUT  /v1/entry/{fp}?worker=ID     entry bytes
//	                                  -> 200 {"done":bool}
//	                                     400 invalid entry
//	                                     409 conflicting bytes
//	                                     422 outside the matrix
//	GET  /v1/status                   -> Status
//
// Every request names its worker, so the coordinator knows who it has
// heard from. Once the matrix is complete every lease, heartbeat and
// upload reply says done, and the worker exits on the first one it
// gets; the coordinator exits once every worker it heard from within
// the last lease TTL has been told (Coordinator.Finished).
//
// A lease request that finds nothing to lease waits for a state change
// for at most LeaseTTL/pollWaitDivisor, then answers with an empty
// lease: poll again now.
//
// A worker treats 410 on heartbeat as "keep computing, upload anyway"
// (entries are judged on their own validity) and 409 on upload as fatal
// drift: its build disagrees byte-for-byte with an accepted entry.

// maxUploadBytes bounds an entry upload; real entries are a few KB.
const maxUploadBytes = 16 << 20

// pollWaitDivisor bounds a lease long-poll to TTL/4. Lease expiry and
// straggler cover (a lease quiet for TTL/2) are noticed by the clock,
// not signalled, so a waiting worker must re-ask well inside TTL/2.
const pollWaitDivisor = 4

// doneReply is the heartbeat and upload acknowledgement.
type doneReply struct {
	Done bool `json:"done"`
}

// Handler serves the dispatch protocol over c.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/spec", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		c.see(r.URL.Query().Get("worker"))
		writeJSON(w, c.Spec())
	})
	mux.HandleFunc("/v1/lease", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req struct {
			Worker string `json:"worker"`
		}
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
			http.Error(w, "bad lease request: "+err.Error(), http.StatusBadRequest)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), c.opts.LeaseTTL/pollWaitDivisor)
		defer cancel()
		writeJSON(w, c.Poll(ctx, req.Worker))
	})
	mux.HandleFunc("/v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req struct {
			Worker string `json:"worker"`
			Lease  string `json:"lease"`
		}
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
			http.Error(w, "bad heartbeat: "+err.Error(), http.StatusBadRequest)
			return
		}
		done, err := c.Heartbeat(req.Worker, req.Lease)
		if err != nil {
			http.Error(w, err.Error(), http.StatusGone)
			return
		}
		writeJSON(w, doneReply{done})
	})
	mux.HandleFunc("/v1/entry/", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPut {
			http.Error(w, "PUT only", http.StatusMethodNotAllowed)
			return
		}
		fp := strings.TrimPrefix(r.URL.Path, "/v1/entry/")
		data, err := io.ReadAll(io.LimitReader(r.Body, maxUploadBytes+1))
		if err != nil {
			http.Error(w, "reading upload: "+err.Error(), http.StatusBadRequest)
			return
		}
		if len(data) > maxUploadBytes {
			http.Error(w, "entry too large", http.StatusRequestEntityTooLarge)
			return
		}
		switch done, err := c.Upload(r.URL.Query().Get("worker"), fp, data); {
		case err == nil:
			writeJSON(w, doneReply{done})
		case errors.Is(err, ErrConflict):
			http.Error(w, err.Error(), http.StatusConflict)
		case errors.Is(err, ErrOutsideMatrix):
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		default:
			// Entry validation failures (the named expcache.ErrEntry*
			// classes) and store I/O errors.
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
	})
	mux.HandleFunc("/v1/status", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		writeJSON(w, c.Status())
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	// An encode failure here means the client hung up mid-response; the
	// worker retries, so there is nothing to recover.
	_ = json.NewEncoder(w).Encode(v)
}
