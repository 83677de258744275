// Package kali is the public API of this reproduction of
//
//	C. Koelbel, P. Mehrotra, J. Van Rosendale,
//	"Supporting Shared Data Structures on Distributed Memory
//	Architectures", PPoPP 1990 (ICASE Report 90-7).
//
// Kali provides a global name space over a (simulated) distributed-
// memory machine: programs declare processor arrays, distribute data
// arrays over them, and express computation as forall loops that read
// and write global indices directly.  Each node runs a per-node
// forall.Engine whose Run (rank-1 Loop) and Run2 (rank-2 Loop2)
// methods turn a loop into SPMD message passing through one pipeline:
// a per-name schedule cache (paper §3.2), a content-addressed store
// that lets identically-shaped loops share one schedule, closed-form
// compile-time analysis when subscripts are affine (§3.1), and the
// run-time inspector/executor (§3.3) for data-dependent subscripts.
// Replaying a cached schedule is allocation-free: payloads are packed
// with bulk per-range copies, coalesced into one message per
// processor pair, and recycled through a buffer pool.
//
// A minimal program — Context.Forall and Context.Forall2 dispatch to
// the node's Engine (also reachable as ctx.Eng for cache control,
// Engine.Schedule inspection, the NoCache/ForceInspector ablation
// switches, and the Reference executor oracle):
//
//	rep := kali.Run(kali.Config{P: 4, Params: kali.NCUBE7()}, func(ctx *kali.Context) {
//	    a := ctx.BlockArray("A", 100)
//	    a.Dist().Pattern(0).Local(ctx.ID()).Each(func(i int) { a.Set1(i, float64(i)) })
//	    ctx.Forall(&kali.Loop{
//	        Name: "shift", Lo: 1, Hi: 99,
//	        On: a, OnF: kali.Identity,
//	        Reads: []kali.ReadSpec{{Array: a, Affine: &kali.Affine{A: 1, C: 1}}},
//	        Body: func(i int, e *kali.Env) { e.Write(a, i, e.Read(a, i+1)) },
//	    })
//	})
//	fmt.Println(rep)
//
// Rank-2 loops run the same way over 2-D processor grids
// (ExampleContext_Forall2 runs this form):
//
//	ctx.Forall2(&kali.Loop2{
//	    Name: "relax", LoI: 2, HiI: n - 1, LoJ: 2, HiJ: n - 1,
//	    On:    a, // rank-2 array over a 2-D grid; OnF2 defaults to Identity2
//	    Reads: []kali.ReadSpec{{Array: old, Affine2: &kali.Affine2{...}}},
//	    Body:  func(i, j int, e *kali.Env) { ... },
//	})
//
// Distributions are dynamic (paper §2.4): Context.Redistribute rebinds
// an array to a new dist clause mid-run with a schedule-driven
// all-to-all (core's ExampleContext_Redistribute alternates row and
// column layouts this way), and the engine's schedule caches key on
// distribution fingerprints so a remapped array can never replay a
// stale schedule.
//
// See docs/ARCHITECTURE.md for the paper-to-code map.  The deeper
// layers are importable directly for advanced use:
// kali/internal/{machine,dist,darray,forall,analysis,inspector-side
// pieces in comm and crystal}.
package kali

import (
	"kali/internal/analysis"
	"kali/internal/core"
	"kali/internal/darray"
	"kali/internal/dist"
	"kali/internal/forall"
	"kali/internal/machine"
)

// Config selects the machine a program runs on.
type Config = core.Config

// Context is one node's view of a running program.
type Context = core.Context

// Report is the aggregated timing result of a run.
type Report = core.Report

// Loop is a forall statement.
type Loop = forall.Loop

// Loop2 is a two-dimensional forall over a rank-2 processor grid.
type Loop2 = forall.Loop2

// Env is the loop body's window onto the global name space.
type Env = forall.Env

// ReadSpec declares a distributed-array reference of a loop body.
type ReadSpec = forall.ReadSpec

// Dep names a pattern-driving array for schedule-cache invalidation.
type Dep = forall.Dep

// Affine is the subscript form a*i + c.
type Affine = analysis.Affine

// Affine2 is the rank-2 subscript pair of a Loop2 read.
type Affine2 = analysis.Affine2

// Array is a distributed array of float64.
type Array = darray.Array

// IntArray is a distributed array of int.
type IntArray = darray.IntArray

// DimSpec is one entry of a dist clause.
type DimSpec = dist.DimSpec

// Params is a machine cost model.
type Params = machine.Params

// Identity is the subscript i.
var Identity = analysis.Identity

// Identity2 is the subscript pair (i, j).
var Identity2 = analysis.Identity2

// Run executes an SPMD program on a fresh simulated machine.
func Run(cfg Config, prog func(ctx *Context)) Report { return core.Run(cfg, prog) }

// NCUBE7 returns the cost model of the paper's 128-node NCUBE/7.
func NCUBE7() Params { return machine.NCUBE7() }

// IPSC2 returns the cost model of the paper's 32-node Intel iPSC/2.
func IPSC2() Params { return machine.IPSC2() }

// Ideal returns a zero-cost machine for functional testing.
func Ideal() Params { return machine.Ideal() }

// MachineByName resolves "ncube", "ipsc" or "ideal".
func MachineByName(name string) (Params, bool) { return machine.ByName(name) }

// Dist-clause constructors, mirroring Kali's syntax.
var (
	// BlockDim is "block".
	BlockDim = dist.BlockDim
	// CyclicDim is "cyclic".
	CyclicDim = dist.CyclicDim
	// BlockCyclicDim is "block_cyclic(b)".
	BlockCyclicDim = dist.BlockCyclicDim
	// CollapsedDim is "*" (dimension not distributed).
	CollapsedDim = dist.CollapsedDim
	// MapDim is a user-defined owner table.
	MapDim = dist.MapDim
)
