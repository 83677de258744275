package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"

	"kali/internal/core"
)

// maxProgramBytes bounds a POST /run body; Kali programs are small.
const maxProgramBytes = 1 << 20

// RunResponse is the JSON body POST /run returns.
type RunResponse struct {
	// P is the processor count the real estate agent chose.
	P int `json:"p"`
	// Report is the run's timing/traffic report, including the
	// Builds/SharedHits schedule-sharing counters (the shared store's
	// evictions are in GET /stats, not in SchedEvictions).
	Report core.Report `json:"report"`
	// Arrays holds the final contents of the arrays named in the
	// request's ?print= list (omitted otherwise).
	Arrays map[string][]float64 `json:"arrays,omitempty"`
	// Scalars holds final scalar values when ?print= was given.
	Scalars map[string]float64 `json:"scalars,omitempty"`
}

type errResponse struct {
	Error string `json:"error"`
}

// Handler returns the server's HTTP interface:
//
//	POST /run?print=a,b  — body is .kali source; compiles and executes
//	                       it on the pool and returns a RunResponse.
//	                       Only the arrays named are gathered to the
//	                       host.  Compile and runtime errors are
//	                       422.
//	GET  /stats          — returns a Stats snapshot as JSON.
//
// Every reply is one line of compact JSON.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/run", s.handleRun)
	mux.HandleFunc("/stats", s.handleStats)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errResponse{Error: "POST a .kali program to /run"})
		return
	}
	src, err := io.ReadAll(io.LimitReader(r.Body, maxProgramBytes+1))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errResponse{Error: err.Error()})
		return
	}
	if len(src) > maxProgramBytes {
		writeJSON(w, http.StatusRequestEntityTooLarge, errResponse{Error: "program too large"})
		return
	}
	// The run gathers only the arrays ?print= names; without it, the one
	// empty name matches no array, so none is gathered.
	names := strings.Split(r.URL.Query().Get("print"), ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	res, err := s.Run(string(src), names...)
	if err != nil {
		// The program is at fault: it did not compile or elaborate, or
		// a node trapped.
		writeJSON(w, http.StatusUnprocessableEntity, errResponse{Error: err.Error()})
		return
	}
	resp := RunResponse{P: res.P, Report: res.Report, Arrays: map[string][]float64{}, Scalars: map[string]float64{}}
	for _, name := range names {
		if a, ok := res.Arrays[name]; ok {
			resp.Arrays[name] = a
		}
		if v, ok := res.Scalars[name]; ok {
			resp.Scalars[name] = v
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
