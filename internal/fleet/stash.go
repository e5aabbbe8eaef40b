package fleet

import (
	"os"
	"path/filepath"
	"sync"

	"tia/internal/snapshot"
	"tia/internal/wal"
)

// closedTombstones bounds how many terminal job IDs the stash remembers
// to fence late snapshot polls (FIFO, mirroring the status tracker's
// terminal bound).
const closedTombstones = 4096

// stashEntry is one job's latest verified checkpoint snapshot.
type stashEntry struct {
	snap  []byte
	cycle int64
}

// snapStash holds each in-flight job's latest checkpoint snapshot so a
// failover can migrate the job instead of restarting it from cycle 0.
//
// It is hardened on three fronts the original map-with-a-mutex was not:
//
//   - quarantine: every put is digest-verified (snapshot.Verify) and
//     must not regress the entry's cycle, so a corrupted or stale poll
//     can neither clobber good migration material nor ship damage to a
//     worker at resubmit time;
//   - lifecycle: close(id) drops the entry when the job goes terminal
//     and leaves a bounded tombstone, so the poll goroutine racing the
//     job's completion cannot repopulate the entry and leak it forever
//     (the stash-growth bug this replaces);
//   - budget: total resident bytes are capped; crossing the cap evicts
//     the oldest other entries (their jobs fall back to a fresh run on
//     migration — correct, just slower — which beats the coordinator
//     dying of memory).
//
// With a stash directory configured, verified entries are also mirrored
// to disk (one file per job, wal.WriteFile) so the coordinator journal
// can resume migrations across a coordinator restart.
type snapStash struct {
	mu       sync.Mutex
	m        map[string]*stashEntry
	order    []string // insertion order, for cap eviction
	bytes    int64
	maxBytes int64
	closed   map[string]struct{}
	closedQ  []string
	dir      string // "" = memory only
	metrics  *Metrics
}

func newSnapStash(maxBytes int64, dir string, m *Metrics) *snapStash {
	return &snapStash{
		m:        make(map[string]*stashEntry),
		maxBytes: maxBytes,
		closed:   make(map[string]struct{}),
		dir:      dir,
		metrics:  m,
	}
}

// put stores a job's snapshot if it verifies, advances the entry's
// cycle, and the job is not already terminal. It reports whether the
// snapshot was accepted.
func (s *snapStash) put(id string, snap []byte) bool {
	hdr, err := snapshot.Verify(snap)
	if err != nil {
		s.metrics.CorruptSnapshots.Add(1)
		return false
	}
	s.mu.Lock()
	if _, gone := s.closed[id]; gone {
		s.mu.Unlock()
		return false
	}
	cur, ok := s.m[id]
	if ok && hdr.Cycle < cur.cycle {
		s.mu.Unlock()
		return false // a lagging poll must not regress migration state
	}
	if !ok {
		cur = &stashEntry{}
		s.m[id] = cur
		s.order = append(s.order, id)
	}
	s.bytes += int64(len(snap)) - int64(len(cur.snap))
	cur.snap = snap
	cur.cycle = hdr.Cycle
	s.evictOverLocked(id)
	s.metrics.StashBytes.Store(s.bytes)
	s.mu.Unlock()
	if s.dir != "" {
		// Best-effort, as the worker checkpointer's write: the mirror
		// serves coordinator-restart recovery, not correctness.
		_ = wal.WriteFile(s.path(id), snap)
	}
	return true
}

// evictOverLocked enforces the byte cap, dropping the oldest entries
// other than keep (the one just written — evicting it would make the
// put a no-op and the cap a livelock).
func (s *snapStash) evictOverLocked(keep string) {
	if s.maxBytes <= 0 {
		return
	}
	for s.bytes > s.maxBytes && len(s.order) > 1 {
		victim := ""
		for i, id := range s.order {
			if id != keep {
				victim = id
				s.order = append(s.order[:i:i], s.order[i+1:]...)
				break
			}
		}
		if victim == "" {
			return
		}
		if e, ok := s.m[victim]; ok {
			s.bytes -= int64(len(e.snap))
			delete(s.m, victim)
			s.metrics.StashEvictions.Add(1)
		}
	}
}

// take pops a job's stashed snapshot for migration (nil when none).
// The disk mirror is kept until close so a coordinator crash between
// take and resubmit does not lose the checkpoint.
func (s *snapStash) take(id string) ([]byte, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[id]
	if !ok {
		return nil, 0
	}
	delete(s.m, id)
	for i, oid := range s.order {
		if oid == id {
			s.order = append(s.order[:i:i], s.order[i+1:]...)
			break
		}
	}
	s.bytes -= int64(len(e.snap))
	s.metrics.StashBytes.Store(s.bytes)
	return e.snap, e.cycle
}

// close marks a job terminal: its entry (and disk mirror) are dropped
// and a tombstone fences any in-flight poll from re-adding it.
func (s *snapStash) close(id string) {
	s.mu.Lock()
	if e, ok := s.m[id]; ok {
		s.bytes -= int64(len(e.snap))
		delete(s.m, id)
		for i, oid := range s.order {
			if oid == id {
				s.order = append(s.order[:i:i], s.order[i+1:]...)
				break
			}
		}
	}
	if _, dup := s.closed[id]; !dup {
		s.closed[id] = struct{}{}
		s.closedQ = append(s.closedQ, id)
		for len(s.closedQ) > closedTombstones {
			delete(s.closed, s.closedQ[0])
			s.closedQ = s.closedQ[1:]
		}
	}
	s.metrics.StashBytes.Store(s.bytes)
	s.mu.Unlock()
	if s.dir != "" {
		_ = os.Remove(s.path(id))
	}
}

// resident returns the stash's current entry count and byte total.
func (s *snapStash) resident() (entries int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m), s.bytes
}

func (s *snapStash) path(id string) string {
	return filepath.Join(s.dir, id+".snap")
}

// diskSnapshot loads a job's persisted stash mirror, verifying before
// returning it (nil when absent or damaged).
func (s *snapStash) diskSnapshot(id string) []byte {
	if s.dir == "" {
		return nil
	}
	snap, err := os.ReadFile(s.path(id))
	if err != nil {
		return nil
	}
	if _, err := snapshot.Verify(snap); err != nil {
		s.metrics.CorruptSnapshots.Add(1)
		return nil
	}
	return snap
}
