// Package server runs many Kali programs concurrently against one
// shared schedule infrastructure — a multi-tenant version of the
// paper's runtime.  The paper's central artifact is the compiled
// communication schedule (§3.2): a pure function of loop structure and
// distribution, built once and replayed.  Within one program the
// engine's caches capture that reuse; this package extends it across
// programs.  Tenants draw simulated machines from a bounded pool, and
// every run's forall engines consult one forall.SharedStore, so a
// schedule built by any tenant is adopted (not rebuilt) by every later
// tenant with the same loop structure, and persisted schedule plans
// let a restarted server warm-start with zero builds.
package server

import (
	"fmt"
	"sync/atomic"

	"kali/internal/comm"
	"kali/internal/core"
	"kali/internal/forall"
	"kali/internal/lang"
	"kali/internal/machine"
)

// Config describes a schedule server.
type Config struct {
	// P is the processor count of every pooled machine.
	P int
	// Machines bounds the number of concurrently running tenants
	// (default 4): each run holds one pooled machine for its duration.
	Machines int
	// Params is the cost model pooled machines are built with.
	Params machine.Params
	// Backend selects the node runtime ("sim" default, "wall").
	Backend string
	// CacheDir, when non-empty, persists compiled schedule plans to
	// disk so a future server on the same directory warm-starts without
	// building.
	CacheDir string
	// StoreCap bounds the shared store's in-memory plan count
	// (default forall.DefaultStoreCap).
	StoreCap int
}

// Server is a pool of machines plus a cross-tenant schedule store.
// All methods are safe for concurrent use.
type Server struct {
	cfg   Config
	store *forall.SharedStore
	pool  chan *machine.Machine
	// machines lists every pooled machine, idle or running, for Stats.
	machines []*machine.Machine

	runs atomic.Int64
	errs atomic.Int64
}

// New builds a server with cfg.Machines pooled machines.
func New(cfg Config) (*Server, error) {
	if cfg.P <= 0 {
		return nil, fmt.Errorf("server: P must be positive, got %d", cfg.P)
	}
	if cfg.Machines <= 0 {
		cfg.Machines = 4
	}
	if cfg.StoreCap <= 0 {
		cfg.StoreCap = forall.DefaultStoreCap
	}
	s := &Server{
		cfg:   cfg,
		store: forall.NewSharedStore(cfg.StoreCap, cfg.CacheDir),
		pool:  make(chan *machine.Machine, cfg.Machines),
	}
	for i := 0; i < cfg.Machines; i++ {
		m, err := core.NewMachine(core.Config{P: cfg.P, Params: cfg.Params, Backend: cfg.Backend})
		if err != nil {
			return nil, err
		}
		s.machines = append(s.machines, m)
		s.pool <- m
	}
	return s, nil
}

// P returns the pooled machines' processor count.
func (s *Server) P() int { return s.cfg.P }

// acquire blocks until a pooled machine is free.
func (s *Server) acquire() *machine.Machine { return <-s.pool }

// release returns a machine to the pool.  Machines are reusable even
// after a tenant panic: Machine.Run unwinds every node goroutine
// before reporting, and Reset (called at the start of the next run)
// clears transport state including the poison.
func (s *Server) release(m *machine.Machine) { s.pool <- m }

// config returns a per-run core.Config bound to machine m.
func (s *Server) config(m *machine.Machine) core.Config {
	return core.Config{
		P:       s.cfg.P,
		Params:  s.cfg.Params,
		Backend: s.cfg.Backend,
		Machine: m,
		Store:   s.store,
	}
}

// Run compiles and executes one .kali program on the pool, gathering
// the arrays named (every array when none are; see lang.Program.Run).
// A compile (parse/check) failure returns a *lang.Error when the source
// is at fault; runtime failures return the recovered error.  Either way
// the machine returns to the pool.
func (s *Server) Run(src string, names ...string) (*lang.Result, error) {
	prog, err := lang.Compile(src)
	if err != nil {
		return nil, err
	}
	return s.RunProgram(prog, names...)
}

// RunProgram executes an already-compiled program on the pool.
func (s *Server) RunProgram(prog *lang.Program, names ...string) (*lang.Result, error) {
	m := s.acquire()
	defer s.release(m)
	s.runs.Add(1)
	res, err := prog.Run(s.config(m), names...)
	if err != nil {
		s.errs.Add(1)
	}
	return res, err
}

// RunFunc executes a Go-API SPMD program on the pool — the embedding
// path tests and benchmarks use.  Runtime panics are recovered into
// the returned error, like the language front end does.
func (s *Server) RunFunc(prog func(ctx *core.Context)) (rep core.Report, err error) {
	m := s.acquire()
	defer s.release(m)
	s.runs.Add(1)
	defer func() {
		if r := recover(); r != nil {
			s.errs.Add(1)
			err = fmt.Errorf("server: runtime error: %v", r)
		}
	}()
	rep = core.Run(s.config(m), prog)
	return rep, nil
}

// Stats is a point-in-time snapshot of server activity.
type Stats struct {
	// Runs counts started tenant runs; Errs the subset that failed.
	Runs int64
	Errs int64
	// Machines is the pool size, P the per-machine processor count.
	Machines int
	P        int
	// Store is the shared schedule store's counters (hits, builds,
	// disk hits, singleflight waits, entries, evictions).
	Store forall.StoreStats
	// Pool sums the payload buffer pools of the server's machines.
	Pool comm.PoolStats
}

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Runs:     s.runs.Load(),
		Errs:     s.errs.Load(),
		Machines: s.cfg.Machines,
		P:        s.cfg.P,
		Store:    s.store.Stats(),
	}
	for _, m := range s.machines {
		st.Pool = st.Pool.Add(forall.MachinePoolStats(m))
	}
	return st
}
