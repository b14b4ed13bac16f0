package cache

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// FuzzCacheGet writes arbitrary bytes as the entry file of a fixed key.
// Get must report a miss or return exactly the bytes after the first
// newline, with the header naming the entry magic, their length and
// their CRC-32C; a corrupt entry is never returned. Put then Get must
// round-trip the same bytes as a payload.
func FuzzCacheGet(f *testing.F) {
	table := crc32.MakeTable(crc32.Castagnoli)
	entry := func(payload string) []byte {
		return []byte(fmt.Sprintf("fxc1 %d %08x\n%s", len(payload), crc32.Checksum([]byte(payload), table), payload))
	}
	rec := `{"family":"torus","size":"4x4","measure":"gamma"}`
	f.Add(entry(rec))
	f.Add(entry(""))
	f.Add(entry("two\nlines\n"))
	f.Add(entry(rec)[:20]) // torn mid-payload
	f.Add(bytes.Replace(entry(rec), []byte("fxc1"), []byte("fxc2"), 1))
	f.Add([]byte("fxc1 3 00000000\nabc")) // checksum mismatch
	f.Add([]byte("fxc1 3\nabc"))          // short header
	// A header that is not Put's but that Get also accepts.
	f.Add([]byte(fmt.Sprintf(" fxc1\t+3 %X\nabc", crc32.Checksum([]byte("abc"), table))))
	f.Add([]byte{})
	c, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	k := testKey("fuzz")
	hx := k.String()
	file := filepath.Join(c.Dir(), hx[:2], hx[2:])
	if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(file, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, ok := c.Get(k); ok {
			nl := bytes.IndexByte(data, '\n')
			if nl < 0 || !bytes.Equal(got, data[nl+1:]) {
				t.Fatalf("Get returned %q, not the bytes after the first newline of %q", got, data)
			}
			header := strings.Fields(string(data[:nl]))
			if len(header) != 3 || header[0] != "fxc1" {
				t.Fatalf("Get accepted header %q", data[:nl])
			}
			n, err := strconv.Atoi(header[1])
			if err != nil || n != len(got) {
				t.Fatalf("Get accepted length %q for a %d-byte payload", header[1], len(got))
			}
			sum, err := strconv.ParseUint(header[2], 16, 32)
			if want := crc32.Checksum(got, table); err != nil || uint32(sum) != want {
				t.Fatalf("Get accepted checksum %q, payload's CRC-32C is %08x", header[2], want)
			}
		}
		if err := c.Put(k, data); err != nil {
			t.Fatal(err)
		}
		if got, ok := c.Get(k); !ok || !bytes.Equal(got, data) {
			t.Fatalf("Put then Get = %q, %v; want %q", got, ok, data)
		}
	})
}
