// Package cache is a content-addressed, on-disk result cache: a flat
// key/value store whose keys are stable hashes of the parameters that
// determine a value, and whose values are small byte payloads (one
// cell's encoded JSONL record, in the sweep engine's use).
//
// The package knows nothing about sweeps — it stores bytes under
// 256-bit keys. What makes it a *result* cache is the caller's key
// discipline: every input that could change the payload's bytes must be
// folded into the key (internal/sweep does this with CellCacheKey,
// which includes a kernel-version stamp). Under that discipline a hit
// can be emitted verbatim in place of recomputation and the output is
// byte-identical by construction.
//
// Durability model: writes are atomic (temp file + rename in the same
// directory), so concurrent writers to one key are safe — each rename
// installs a complete entry, last one wins, and every winner holds the
// same bytes when keys are content-derived. Nothing is fsynced, so that
// atomicity holds against the death of the writing process, not an OS
// crash or power loss. Reads validate a length+checksum header; a torn,
// truncated, or bit-flipped entry is reported as a miss (never
// returned), and the next write-back repairs it. Corruption can
// therefore cost a recomputation, never a wrong byte.
package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strconv"
)

// Key is a content address: a SHA-256 over the canonical field encoding
// a Hasher builds. Two keys are equal iff every field fed to the hasher
// was equal, in order.
type Key [32]byte

// String renders the key as lowercase hex — the on-disk name.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Hasher builds a Key from a sequence of typed fields. The encoding is
// injective — every field is tagged with its type and strings carry an
// explicit length — so distinct field sequences can never collide by
// concatenation ("ab"+"c" vs "a"+"bc"). The buffer persists across
// Reset, which is what makes the steady-state key path allocation-free:
// hash a cell, Reset, hash the next, reusing the same backing array.
//
// The zero Hasher is ready to use.
type Hasher struct {
	buf []byte
}

// Reset clears the field sequence, keeping the backing buffer.
func (h *Hasher) Reset() { h.buf = h.buf[:0] }

// Field appends one string field (length-prefixed).
func (h *Hasher) Field(s string) {
	h.buf = append(h.buf, 's')
	h.buf = binary.LittleEndian.AppendUint64(h.buf, uint64(len(s)))
	h.buf = append(h.buf, s...)
}

// Int appends one signed integer field.
func (h *Hasher) Int(v int64) {
	h.buf = append(h.buf, 'i')
	h.buf = binary.LittleEndian.AppendUint64(h.buf, uint64(v))
}

// Uint appends one unsigned integer field.
func (h *Hasher) Uint(v uint64) {
	h.buf = append(h.buf, 'u')
	h.buf = binary.LittleEndian.AppendUint64(h.buf, v)
}

// Float appends one float field by its exact bit pattern (so 0 and -0,
// or two floats that print alike, still hash apart).
func (h *Hasher) Float(v float64) {
	h.buf = append(h.buf, 'f')
	h.buf = binary.LittleEndian.AppendUint64(h.buf, math.Float64bits(v))
}

// Sum returns the key of the fields appended since the last Reset.
func (h *Hasher) Sum() Key { return sha256.Sum256(h.buf) }

// Cache is the on-disk store. Entries live two levels deep —
// dir/<hex[0:2]>/<hex[2:]> — so one directory never accumulates every
// entry of a large grid. A Cache is safe for concurrent use by any
// number of goroutines and processes sharing the directory.
type Cache struct {
	dir string
}

// Open returns a cache rooted at dir, creating the directory if needed.
func Open(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

// entryMagic versions the on-disk entry framing (header layout), not
// the payload semantics — payload invalidation rides in the key.
const entryMagic = "fxc1"

// crcTable is the Castagnoli polynomial (hardware-accelerated on the
// platforms we run on).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// path splits a key into its shard directory and file name.
func (c *Cache) path(k Key) (dir, file string) {
	hx := k.String()
	return filepath.Join(c.dir, hx[:2]), hx[2:]
}

// Get returns the payload stored under k. ok is false on a missing
// entry — and on a malformed, truncated, or checksum-failing one: a
// corrupt entry is indistinguishable from a miss, so the caller
// recomputes (and its write-back repairs the entry). A corrupt entry is
// never returned.
func (c *Cache) Get(k Key) (payload []byte, ok bool) {
	dir, file := c.path(k)
	b, err := os.ReadFile(filepath.Join(dir, file))
	if err != nil {
		return nil, false
	}
	nl := bytes.IndexByte(b, '\n')
	if nl < 0 {
		return nil, false
	}
	fields := bytes.Fields(b[:nl])
	if len(fields) != 3 || string(fields[0]) != entryMagic {
		return nil, false
	}
	n, err1 := strconv.Atoi(string(fields[1]))
	sum, err2 := strconv.ParseUint(string(fields[2]), 16, 32)
	if err1 != nil || err2 != nil {
		return nil, false
	}
	payload = b[nl+1:]
	if n != len(payload) || crc32.Checksum(payload, crcTable) != uint32(sum) {
		return nil, false
	}
	return payload, true
}

// Put stores payload under k, atomically: the entry is written to a
// temp file in the destination directory and renamed into place, so a
// reader (or a concurrent writer) never observes a half-written entry
// under the final name. A writer killed mid-write leaves at worst an
// orphan temp file, never a torn entry.
func (c *Cache) Put(k Key, payload []byte) error {
	dir, file := c.path(k)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	f, err := os.CreateTemp(dir, ".put-*")
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	tmp := f.Name()
	_, werr := fmt.Fprintf(f, "%s %d %08x\n", entryMagic, len(payload), crc32.Checksum(payload, crcTable))
	if werr == nil {
		_, werr = f.Write(payload)
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, filepath.Join(dir, file))
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("cache: %w", werr)
	}
	return nil
}
