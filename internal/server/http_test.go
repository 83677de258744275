package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"kali/internal/machine"
)

const httpTestProgram = `processors Procs : array[1..P] with P in 1..64;
const n = 16;
      m = 15;
var a : array[1..n] of real dist by [block] on Procs;
    i : integer;
begin
  for i in 1..n do
    a[i] := float(i);
  end;
  forall i in 1..m on a[i].loc do
    a[i] := a[i+1];
  end;
end.
`

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Config{P: 4, Machines: 2, Params: machine.Ideal()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func TestHTTPRun(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/run?print=a", "text/plain", strings.NewReader(httpTestProgram))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var rr RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if rr.P <= 0 {
		t.Fatalf("response P = %d", rr.P)
	}
	a := rr.Arrays["a"]
	if len(a) != 16 {
		t.Fatalf("printed array has %d elements, want 16", len(a))
	}
	// The shift leaves a[i] = i+1 for i < n and a[n] = n.
	for i := 0; i < 15; i++ {
		if a[i] != float64(i+2) {
			t.Fatalf("a[%d] = %g, want %d", i+1, a[i], i+2)
		}
	}
	if rr.Report.Builds == 0 {
		t.Fatal("report carries no build count")
	}
}

func TestHTTPCompileError(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/run", "text/plain", strings.NewReader("begin end"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", resp.StatusCode)
	}
	var er struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Error == "" {
		t.Fatal("empty error message")
	}
}

// TestHTTPBadArrayBounds: a program whose array bound elaborates out of
// range passes Check but is still the client's fault: 422, with the
// declaration's line in the error.
func TestHTTPBadArrayBounds(t *testing.T) {
	_, ts := newTestServer(t)
	const src = `processors Procs : array[1..P] with P in 1..64;
const n = P - 8;
var a : array[1..n] of real dist by [block] on Procs;
begin
end.
`
	resp, err := http.Post(ts.URL+"/run", "text/plain", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var er errResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.HasPrefix(er.Error, "3:") || !strings.Contains(er.Error, `array "a"`) {
		t.Fatalf("status %d, error %q; want 422 and an error at line 3 naming array \"a\"", resp.StatusCode, er.Error)
	}
}

func TestHTTPMethodAndStats(t *testing.T) {
	srv, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /run: status %d, want 405", resp.StatusCode)
	}

	if _, err := http.Post(ts.URL+"/run", "text/plain", strings.NewReader(httpTestProgram)); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Runs != 1 || st.Machines != 2 || st.P != srv.P() {
		t.Fatalf("stats = %+v, want 1 run on a 2-machine P=4 pool", st)
	}
}
