package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"time"

	"kali/internal/machine"
	"kali/internal/server"
)

// Tenant server shape: 2 pooled 4-node simulated machines, driven by 2
// closed-loop clients — each tenant waits for its reply before sending
// the next program, so a slow server receives less load.
const (
	tenantP        = 4
	tenantMachines = 2
	tenantClients  = 2
)

// tenantsHTTP is the POST /run path behind a loopback HTTP server.
type tenantsHTTP struct {
	seed int64
	salt int
	mix  *tenantMix
	srv  *server.Server
	ts   *httptest.Server
	// streams are the clients' seeded request streams; they continue
	// across warm-up and passes, so no pass replays another's requests.
	streams [tenantClients]func() *tenantProgram
}

func newTenantServer(cacheDir string) (*server.Server, error) {
	return server.New(server.Config{P: tenantP, Machines: tenantMachines, Params: machine.NCUBE7(), Backend: "sim", CacheDir: cacheDir})
}

func setupTenantsHTTP(seed int64, sz sizes) (instance, error) {
	w := &tenantsHTTP{seed: seed, salt: saltOf(seed), mix: genTenantMix(seed)}
	srv, err := newTenantServer("")
	if err != nil {
		return nil, err
	}
	w.srv = srv
	w.ts = httptest.NewServer(srv.Handler())
	for c := range w.streams {
		rng := clientRNG(seed, c)
		w.streams[c] = func() *tenantProgram { return w.mix.draw(rng) }
	}
	s := w.drive(budget{maxSamples: sz.tenantWarm}, nil, w.overHTTP)
	if s.failed > 0 {
		w.close()
		return nil, fmt.Errorf("tenants-http: %d of %d warm-up requests failed", s.failed, s.ops)
	}
	return w, nil
}

func (w *tenantsHTTP) close() { w.ts.Close() }

// reply is what a request path returns for checking: the HTTP status
// (200 on the direct path when Run succeeded), the printed array and
// the run's report counters.
type reply struct {
	status int
	array  []float64
	resp   server.RunResponse
}

// overHTTP sends one program as POST /run?print=<array> and decodes
// the reply.
func (w *tenantsHTTP) overHTTP(p *tenantProgram, tr *tracer, op, tid, parent int) (reply, error) {
	s := tr.begin("http.Post", op, tid, parent)
	res, err := w.ts.Client().Post(w.ts.URL+"/run?print="+url.QueryEscape(p.print), "text/plain", strings.NewReader(p.src))
	if err != nil {
		tr.end(s)
		return reply{}, err
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	tr.end(s)
	if err != nil {
		return reply{}, err
	}
	r := reply{status: res.StatusCode}
	if r.status != http.StatusOK {
		return r, nil
	}
	s = tr.begin("json.Decode", op, tid, parent)
	err = json.Unmarshal(body, &r.resp)
	tr.end(s)
	r.array = r.resp.Arrays[p.print]
	return r, err
}

// direct is the handler's work without HTTP: the same calls
// server.handleRun makes, under spans — compile, run on the pool,
// encode the response.
func (w *tenantsHTTP) direct(p *tenantProgram, tr *tracer, op, tid, parent int) (reply, error) {
	prog, err := compileUnderSpans(p.src, tr, op, tid, parent)
	if err != nil {
		return reply{status: http.StatusUnprocessableEntity}, nil
	}
	s := tr.begin("Server.RunProgram", op, tid, parent)
	res, err := w.srv.RunProgram(prog)
	tr.end(s)
	if err != nil {
		return reply{status: http.StatusInternalServerError}, nil
	}
	r := reply{status: http.StatusOK, array: res.Arrays[p.print]}
	r.resp = server.RunResponse{P: res.P, Report: res.Report, Arrays: map[string][]float64{p.print: r.array}}
	s = tr.begin("json.Encode", op, tid, parent)
	enc := json.NewEncoder(io.Discard)
	enc.SetIndent("", "  ")
	err = enc.Encode(r.resp)
	tr.end(s)
	return r, err
}

type requestPath func(p *tenantProgram, tr *tracer, op, tid, parent int) (reply, error)

// drive runs the closed-loop clients over one request path until b
// ends (maxSamples counts requests per client).  Client goroutines
// are started before the clock and released together.
func (w *tenantsHTTP) drive(b budget, tr *tracer, send requestPath) samples {
	var per [tenantClients]samples
	var wg sync.WaitGroup
	start := make(chan struct{})
	for c := 0; c < tenantClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s := &per[c]
			<-start
			for b.more(s.ops) {
				p := w.streams[c]()
				t0 := time.Now()
				top := tr.begin("request", s.ops, c, -1)
				r, err := send(p, tr, s.ops, c, top)
				tr.end(top)
				dur := time.Since(t0)
				ok := err == nil && r.status == http.StatusOK && closeTo(r.array, p.want)
				s.add(dur, r.resp.Report, ok)
			}
		}(c)
	}
	close(start)
	wg.Wait()
	var all samples
	for _, s := range per {
		all.merge(s)
	}
	return all
}

func (w *tenantsHTTP) measure(b budget, tr *tracer) samples { return w.drive(b, tr, w.overHTTP) }

// twin drives the same request streams through the handler's calls
// directly, which is where the spans inside a request come from.
func (w *tenantsHTTP) twin(b budget, tr *tracer) { w.drive(b, tr, w.direct) }

func (w *tenantsHTTP) probeShape() probeShape {
	ps := defaultProbeShape(w.salt)
	ps.kaliN, ps.kaliSweeps = side2D(hotSizes[1]), tenantSweeps
	ps.tenants = w
	return ps
}
