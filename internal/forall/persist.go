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

// schedCacheVersion is bumped whenever Blueprint's serialized form
// changes; files carrying any other version are ignored and rebuilt.
const schedCacheVersion = 2

// diskSched is the on-disk envelope around a gob-encoded Blueprint.
type diskSched struct {
	Version int
	KeyFP   uint64
	Node    int
	Sum     uint64
	Payload []byte
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

// loadDisk revives a persisted blueprint, or returns nil if the file
// is absent, unreadable, stale-versioned, mismatched, or corrupted —
// the caller rebuilds in every such case.
func (s *SharedStore) loadDisk(node int, fp uint64) *Blueprint {
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
	bp := new(Blueprint)
	if err := gob.NewDecoder(bytes.NewReader(ds.Payload)).Decode(bp); err != nil {
		return nil
	}
	for k := range bp.Arrays {
		sp := &bp.Arrays[k]
		sp.in = comm.NewInSet(sp.In, sp.InTotal)
	}
	return bp
}

// saveDisk persists a blueprint.  Failures are silent: persistence is
// an optimization, and the in-memory store already holds the result.
func (s *SharedStore) saveDisk(node int, fp uint64, bp *Blueprint) {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(bp); err != nil {
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
