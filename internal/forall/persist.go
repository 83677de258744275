package forall

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"kali/internal/comm"
)

// Schedule persistence: compiled schedules serialized to a cache
// directory so warm starts skip building entirely — §3.2's "saving
// them for later loop executions" stretched across process lifetimes.
// Files are written atomically (temp file + rename, so concurrent
// tenants and processes never observe a torn file) and validated on
// load: a version header guards format drift, the structural key
// fingerprint guards against filename collisions and stale renames,
// and an FNV checksum over the payload guards against corruption.
// Every validation failure is treated the same way — as a cache miss
// that falls back to a clean rebuild (and rewrites the file).

// schedCacheVersion is bumped whenever diskPlan's serialized form
// changes; files carrying any other version are ignored and rebuilt.
const schedCacheVersion = 2

// diskSched is the on-disk envelope around a gob-encoded diskPlan.
type diskSched struct {
	Version int
	KeyFP   uint64
	Node    int
	Sum     uint64
	Payload []byte
}

// diskPlan is a compile-time plan as the cache directory holds it: the
// interior as (row, lo, hi) segments (row 0 for rank-1 loops), the
// boundary as (i, j) pairs, and per-slot range records with their
// element totals.  Gob matches fields by name, so these names are the
// format.
type diskPlan struct {
	Rank         int
	ExecLocal    [][3]int
	ExecNonlocal [][2]int
	Arrays       []diskSlot
}

type diskSlot struct {
	In       []comm.Range
	InTotal  int
	Out      []comm.Range
	OutTotal int
}

func payloadSum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// cachePath names the file for (node, key-fingerprint).  The
// fingerprint is content-based and process-stable (shareKey mixes only
// structural data through FNV), so independent processes agree on the
// name.
func (s *SharedStore) cachePath(node int, fp uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("sched-n%d-%016x.ksched", node, fp))
}

// loadDisk revives a persisted plan, or returns nil if the file is
// absent, unreadable, stale-versioned, mismatched, corrupted or not a
// well-formed plan for node — the caller rebuilds in every such case.
func (s *SharedStore) loadDisk(node int, fp uint64) *plan {
	raw, err := os.ReadFile(s.cachePath(node, fp))
	if err != nil {
		return nil
	}
	var ds diskSched
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&ds); err != nil {
		return nil
	}
	if ds.Version != schedCacheVersion || ds.KeyFP != fp || ds.Node != node {
		return nil
	}
	if payloadSum(ds.Payload) != ds.Sum {
		return nil
	}
	var dp diskPlan
	if err := gob.NewDecoder(bytes.NewReader(ds.Payload)).Decode(&dp); err != nil {
		return nil
	}
	return dp.plan(node)
}

// plan rebuilds the in-memory plan, or returns nil when the rank or
// the records are not what the compile-time analysis makes for node:
// in records from other nodes sorted by (FromProc, Low) with
// consecutive buffer offsets, out records to other nodes sorted by
// (ToProc, Low), and totals that match them.  The records size the
// receive buffers and cut every message, so they are what must hold.
func (dp *diskPlan) plan(node int) *plan {
	if dp.Rank != 1 && dp.Rank != 2 {
		return nil
	}
	p := &plan{rank: dp.Rank, kind: BuildCompileTime}
	for _, t := range dp.ExecLocal {
		p.execLocal = append(p.execLocal, segment{i: t[0], lo: t[1], hi: t[2]})
	}
	for _, it := range dp.ExecNonlocal {
		p.execNonlocal = append(p.execNonlocal, iteration{i: it[0], j: it[1]})
	}
	for _, ds := range dp.Arrays {
		if !wellFormed(ds.In, ds.InTotal, node, true) || !wellFormed(ds.Out, ds.OutTotal, node, false) {
			return nil
		}
		p.slots = append(p.slots, slot{
			in:  comm.NewInSet(ds.In, ds.InTotal),
			out: &comm.OutSet{Ranges: ds.Out, Total: ds.OutTotal},
		})
	}
	p.finish()
	return p
}

// wellFormed checks one slot's in (or out) records for node.
func wellFormed(rs []comm.Range, total, node int, in bool) bool {
	n, prev := 0, comm.Range{}
	for k, r := range rs {
		me, peer, prevPeer := r.ToProc, r.FromProc, prev.FromProc
		if !in {
			me, peer, prevPeer = r.FromProc, r.ToProc, prev.ToProc
		}
		if me != node || peer == node || peer < 0 || r.Len() <= 0 || (in && r.Buf != n) ||
			(k > 0 && (peer < prevPeer || peer == prevPeer && r.Low <= prev.High)) {
			return false
		}
		if n += r.Len(); n <= 0 {
			return false
		}
		prev = r
	}
	return n == total
}

// saveDisk persists a plan.  Failures are silent: persistence is an
// optimization, and the in-memory store already holds the result.
func (s *SharedStore) saveDisk(node int, fp uint64, p *plan) {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return
	}
	dp := diskPlan{Rank: p.rank}
	for _, sg := range p.execLocal {
		dp.ExecLocal = append(dp.ExecLocal, [3]int{sg.i, sg.lo, sg.hi})
	}
	for _, it := range p.execNonlocal {
		dp.ExecNonlocal = append(dp.ExecNonlocal, [2]int{it.i, it.j})
	}
	for _, sl := range p.slots {
		dp.Arrays = append(dp.Arrays, diskSlot{In: sl.in.Ranges, InTotal: sl.in.Total, Out: sl.out.Ranges, OutTotal: sl.out.Total})
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&dp); err != nil {
		return
	}
	var file bytes.Buffer
	ds := diskSched{
		Version: schedCacheVersion,
		KeyFP:   fp,
		Node:    node,
		Sum:     payloadSum(payload.Bytes()),
		Payload: payload.Bytes(),
	}
	if err := gob.NewEncoder(&file).Encode(&ds); err != nil {
		return
	}
	path := s.cachePath(node, fp)
	tmp, err := os.CreateTemp(s.dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return
	}
	if _, err := tmp.Write(file.Bytes()); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
	}
}
