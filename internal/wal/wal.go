// Package wal is the durable-state layer: the CRC-framed, fsync'd
// append-only record log the service's and the fleet coordinator's job
// journal is built on, and WriteFile, the one atomic whole-file write
// that every checkpoint, stash mirror, snapshot and state file uses.
//
// Framing is length + CRC32 + payload per record. The log is only ever
// extended; the single destructive operation is truncating a torn tail
// at open — everything after the last record that framed and
// checksummed correctly is the residue of a crash mid-append and is
// unrecoverable by construction. Appends are serialized and fsync'd
// before returning, so once Append returns nil the record survives a
// crash.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// DefaultMaxRecord bounds one record's payload when Open is given no
// limit; a length prefix beyond the bound is treated as tail
// corruption, not an allocation request.
const DefaultMaxRecord = 64 << 20

// Log is the append side of a write-ahead log.
type Log struct {
	mu   sync.Mutex
	f    *os.File
	path string
	// maxRecord is the bound the log was opened with: Append refuses
	// what a later Open would drop as a torn tail.
	maxRecord int
}

// Open opens (creating if absent) a log at path, replays every intact
// record, truncates any torn tail, and positions the file for appends.
// It returns the replayed payloads in append order. maxRecord bounds a
// single record's payload; <= 0 means DefaultMaxRecord.
func Open(path string, maxRecord int) (*Log, [][]byte, error) {
	if maxRecord <= 0 {
		maxRecord = DefaultMaxRecord
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	recs, good, err := readAll(f, maxRecord)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal %s: %w", path, err)
	}
	if fi, err := f.Stat(); err == nil && fi.Size() > good {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal %s: truncate torn tail: %w", path, err)
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal %s: %w", path, err)
	}
	return &Log{f: f, path: path, maxRecord: maxRecord}, recs, nil
}

// readAll scans records from the start of the file, returning the
// intact payloads and the offset just past the last one. Framing damage
// (short header, short payload, CRC mismatch, absurd length) ends the
// scan without error: it marks the torn tail.
func readAll(f *os.File, maxRecord int) ([][]byte, int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, err
	}
	var (
		recs   [][]byte
		good   int64
		header [8]byte
	)
	for {
		if _, err := io.ReadFull(f, header[:]); err != nil {
			return recs, good, nil // clean EOF or torn header: stop here
		}
		n := binary.LittleEndian.Uint32(header[0:4])
		sum := binary.LittleEndian.Uint32(header[4:8])
		if n == 0 || n > uint32(maxRecord) {
			return recs, good, nil
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(f, payload); err != nil {
			return recs, good, nil
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, good, nil
		}
		recs = append(recs, payload)
		good += int64(len(header)) + int64(n)
	}
}

// Append frames one payload, writes it, and fsyncs before returning.
// An empty payload, or one above the bound the log was opened with, is
// refused and nothing is written: Open reads either length as a torn
// tail, so the record and every one appended after it would be lost.
func (l *Log) Append(payload []byte) error {
	if len(payload) == 0 || len(payload) > l.maxRecord {
		return fmt.Errorf("wal: append: %d-byte record outside 1..%d", len(payload), l.maxRecord)
	}
	buf := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[8:], payload)

	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.f.Write(buf); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	return nil
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// Close releases the log file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// WriteFile replaces the file at path with data, atomically and
// durably: it writes path+".tmp", fsyncs and closes it, renames it over
// path, then fsyncs the directory so the rename itself survives a
// crash. A crash at any point leaves either the old file or the new one
// whole, never a torn mix. If the write fails before the rename, the
// old file is untouched and the temporary is removed; an error from the
// final directory fsync means the new file is in place but may not
// survive a crash. Concurrent calls for one path are not supported:
// they share the temporary.
func WriteFile(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	return err
}
