package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRoundTrip: appended payloads come back verbatim, in order, across
// a close/reopen.
func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	log, recs, err := Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh log replayed %d records", len(recs))
	}
	var want [][]byte
	for i := 0; i < 10; i++ {
		p := []byte(fmt.Sprintf("record-%d", i))
		want = append(want, p)
		if err := log.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	log, recs, err = Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if !bytes.Equal(recs[i], want[i]) {
			t.Errorf("record %d = %q, want %q", i, recs[i], want[i])
		}
	}
}

// TestTornTail: a crash mid-append leaves a torn tail; reopen must keep
// every intact record, drop the tail, and truncate the file so the next
// append starts clean.
func TestTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	log, _, err := Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	log.Append([]byte("alpha"))
	log.Append([]byte("beta"))
	log.Close()

	// Simulate the crash: append half a record by hand.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{50, 0, 0, 0, 1, 2}) // length says 50, then nothing
	f.Close()

	log, recs, err := Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || string(recs[0]) != "alpha" || string(recs[1]) != "beta" {
		t.Fatalf("replay after torn tail = %q", recs)
	}
	if err := log.Append([]byte("gamma")); err != nil {
		t.Fatal(err)
	}
	log.Close()
	_, recs, err = Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || string(recs[2]) != "gamma" {
		t.Fatalf("post-truncate append replay = %q", recs)
	}
}

// TestCorruptRecord: a CRC mismatch mid-file ends the scan there — the
// damaged record and everything after it are the torn tail.
func TestCorruptRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	log, _, err := Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	log.Append([]byte("keep"))
	log.Append([]byte("damage-me"))
	log.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	log, recs, err := Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if len(recs) != 1 || string(recs[0]) != "keep" {
		t.Fatalf("replay after corruption = %q, want just %q", recs, "keep")
	}
}

// TestMaxRecord: a length prefix beyond the bound is tail corruption,
// not an allocation request.
func TestMaxRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	log, _, err := Open(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	log.Append([]byte("ok"))
	log.Close()
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	f.Write([]byte{255, 255, 255, 255, 0, 0, 0, 0})
	f.Close()
	log, recs, err := Open(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if len(recs) != 1 || string(recs[0]) != "ok" {
		t.Fatalf("replay = %q, want just %q", recs, "ok")
	}
}

// TestAppendRefusesWhatOpenDrops: Append refuses an empty record and one
// above the bound the log was opened with, and writes nothing for
// either, so the records appended after them survive a reopen. Open
// would read either length as a torn tail and truncate there.
func TestAppendRefusesWhatOpenDrops(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	log, _, err := Open(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := log.Append(bytes.Repeat([]byte{'x'}, 17)); err == nil {
		t.Error("Append accepted a 17-byte record in a log bounded to 16")
	}
	if err := log.Append(nil); err == nil {
		t.Error("Append accepted an empty record")
	}
	if err := log.Append(bytes.Repeat([]byte{'y'}, 16)); err != nil {
		t.Fatalf("Append of a record at the bound: %v", err)
	}
	if err := log.Append([]byte("last")); err != nil {
		t.Fatal(err)
	}
	log.Close()
	log, recs, err := Open(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	want := []string{"first", "yyyyyyyyyyyyyyyy", "last"}
	if len(recs) != len(want) {
		t.Fatalf("replay = %q, want %q", recs, want)
	}
	for i := range want {
		if string(recs[i]) != want[i] {
			t.Errorf("record %d = %q, want %q", i, recs[i], want[i])
		}
	}
}

// TestWriteFileReplacesWhole: a successful write replaces the old
// contents whole, longer or shorter, and leaves no temporary behind.
func TestWriteFileReplacesWhole(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state")
	for _, data := range [][]byte{[]byte("first, longer contents"), []byte("second")} {
		if err := WriteFile(path, data); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		got, err := os.ReadFile(path)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read back %q, %v; want %q", got, err, data)
		}
		assertOnlyEntry(t, dir, "state")
	}
}

// TestWriteFileFailureKeepsOld: a write that fails leaves whatever was
// at the path as it was and no temporary behind, whether it fails
// creating the temporary or renaming it.
func TestWriteFileFailureKeepsOld(t *testing.T) {
	// The rename fails: the target is a non-empty directory.
	dir := t.TempDir()
	path := filepath.Join(dir, "state")
	if err := os.MkdirAll(filepath.Join(path, "keep"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, []byte("new")); err == nil {
		t.Fatal("WriteFile over a non-empty directory succeeded")
	}
	if fi, err := os.Stat(filepath.Join(path, "keep")); err != nil || !fi.IsDir() {
		t.Errorf("old contents damaged: %v", err)
	}
	assertOnlyEntry(t, dir, "state")

	// Creating the temporary fails: its directory does not exist.
	missing := filepath.Join(dir, "absent", "state")
	if err := WriteFile(missing, []byte("new")); err == nil {
		t.Fatal("WriteFile into a missing directory succeeded")
	}
	assertOnlyEntry(t, dir, "state")
}

// assertOnlyEntry fails unless dir holds exactly the entry name.
func assertOnlyEntry(t *testing.T, dir, name string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != name {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Errorf("directory holds %v, want just %s", names, name)
	}
}

// TestOnlyWriteFileRenames: every whole-file replacement in the module
// goes through WriteFile, so each is fsync'd and its rename made
// durable. A non-test os.Rename anywhere else fails this test.
func TestOnlyWriteFileRenames(t *testing.T) {
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || fileExists(filepath.Join(path, "go.mod"))) {
				return filepath.SkipDir // hidden, or another module
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if bytes.Contains(src, []byte("os.Rename(")) && filepath.Clean(path) != filepath.Join(root, "internal", "wal", "wal.go") {
			t.Errorf("%s calls os.Rename; use wal.WriteFile", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
