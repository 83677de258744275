package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"testing"
	"time"

	"kali/internal/lang"
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

// TestHTTPTrapReleasesMachine: on a one-machine sim pool, a program
// whose last node traps while its peers wait in a halo exchange
// answers 422, and the machine is back in the pool for the next
// request.  A wait that Poison missed would hold the only machine; the
// handler runs on its own goroutine so that a deadline fails the test
// instead of hanging it.
func TestHTTPTrapReleasesMachine(t *testing.T) {
	srv, err := New(Config{P: 4, Machines: 1, Params: machine.Ideal()})
	if err != nil {
		t.Fatal(err)
	}
	shift, err := os.ReadFile("../lang/testdata/shift.kali")
	if err != nil {
		t.Fatal(err)
	}
	const trap = `processors Procs : array[1..P] with P in 1..64;
const N = 24;
var A, B : array[1..N] of real dist by [block] on Procs;
    i : integer;
begin
  forall i in 1..N on B[i].loc do
    B[i] := float(10 div (N - i));
  end;
  forall i in 1..N-1 on A[i].loc do
    A[i] := B[i+1];
  end;
end.
`
	for _, c := range []struct {
		src  string
		want int
	}{{trap, http.StatusUnprocessableEntity}, {string(shift), http.StatusOK}} {
		replied := make(chan *httptest.ResponseRecorder, 1)
		go func() {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(c.src)))
			replied <- rec
		}()
		select {
		case rec := <-replied:
			if rec.Code != c.want {
				t.Fatalf("status %d, want %d: %s", rec.Code, c.want, rec.Body)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("no reply after 10s (want %d)", c.want)
		}
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

// postRun posts httpTestProgram to /run with the given query and
// returns the reply body.
func postRun(t *testing.T, ts *httptest.Server, query string) []byte {
	t.Helper()
	resp, err := http.Post(ts.URL+"/run"+query, "text/plain", strings.NewReader(httpTestProgram))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", resp.StatusCode, body)
	}
	return body
}

// oneLine fails unless body is a single line of JSON.
func oneLine(t *testing.T, what string, body []byte) {
	t.Helper()
	if bytes.Count(body, []byte("\n")) != 1 || !bytes.HasSuffix(body, []byte("\n")) {
		t.Fatalf("%s reply is not one line of JSON:\n%s", what, body)
	}
}

// TestHTTPRepliesAreCompact: /run and /stats reply in one line each,
// and the /run reply decodes to what RunProgram returned on a fresh
// server, float bits included.
func TestHTTPRepliesAreCompact(t *testing.T) {
	_, ts := newTestServer(t)
	body := postRun(t, ts, "?print=a,i")
	oneLine(t, "/run", body)
	var got RunResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}

	srv, _ := newTestServer(t)
	prog, err := lang.Compile(httpTestProgram)
	if err != nil {
		t.Fatal(err)
	}
	res, err := srv.RunProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	if got.P != res.P || got.Report != res.Report || len(got.Arrays) != 1 || len(got.Scalars) != 1 || got.Scalars["i"] != res.Scalars["i"] {
		t.Fatalf("reply %+v, want P %d, report %+v, a and i = %v", got, res.P, res.Report, res.Scalars["i"])
	}
	sameBits(t, got.Arrays["a"], res.Arrays["a"])

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	stats, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	oneLine(t, "/stats", stats)
}

// TestHTTPPrintNames: ?print= names are trimmed, a duplicate prints
// once and an unknown name is omitted; the arrays and scalars printed
// are those of a run that gathers everything.
func TestHTTPPrintNames(t *testing.T) {
	_, ts := newTestServer(t)
	var got RunResponse
	if err := json.Unmarshal(postRun(t, ts, "?print="+url.QueryEscape(" a , nope,a,i ,")), &got); err != nil {
		t.Fatal(err)
	}
	srv, _ := newTestServer(t)
	res, err := srv.Run(httpTestProgram)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Arrays) != 1 || len(got.Scalars) != 1 || got.Scalars["i"] != res.Scalars["i"] {
		t.Fatalf("printed arrays %v and scalars %v, want a and i = %v", got.Arrays, got.Scalars, res.Scalars["i"])
	}
	sameBits(t, got.Arrays["a"], res.Arrays["a"])

	var none RunResponse
	if err := json.Unmarshal(postRun(t, ts, ""), &none); err != nil {
		t.Fatal(err)
	}
	if none.Arrays != nil || none.Scalars != nil {
		t.Fatalf("with no ?print= the reply carries arrays %v and scalars %v", none.Arrays, none.Scalars)
	}
}

// sameBits fails unless got holds want's values bit for bit.
func sameBits(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d elements, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("[%d] = %v, want %v", i+1, got[i], want[i])
		}
	}
}
