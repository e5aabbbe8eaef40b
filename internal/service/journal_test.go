package service

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tia/internal/wal"
)

func openTestJournal(t *testing.T, path string) (*Journal, []JournalRecord) {
	t.Helper()
	j, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	return j, recs
}

func mustAppend(t *testing.T, j *Journal, rec JournalRecord) {
	t.Helper()
	if err := j.Append(rec); err != nil {
		t.Fatalf("append %s: %v", rec.Kind, err)
	}
}

// TestJournalAppendReplayRoundTrip appends a realistic record sequence,
// reopens the file, and checks every record (including nested request
// and result payloads) survives byte-exactly.
func TestJournalAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, recs := openTestJournal(t, path)
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	mustAppend(t, j, JournalRecord{Kind: RecAccepted, ID: "job-000001", Req: &JobRequest{Workload: "dmm", Size: 8}})
	mustAppend(t, j, JournalRecord{Kind: RecCheckpointed, ID: "job-000001", Cycles: 600, File: "/tmp/x.snap"})
	mustAppend(t, j, JournalRecord{Kind: RecCompleted, ID: "job-000001", Result: &JobResult{ID: "job-000001", Key: "k", Cycles: 1221, Completed: true}})
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	j2, recs := openTestJournal(t, path)
	defer j2.Close()
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want 3", len(recs))
	}
	if recs[0].Kind != RecAccepted || recs[0].Req == nil || recs[0].Req.Workload != "dmm" || recs[0].Req.Size != 8 {
		t.Errorf("accepted record lost its request: %+v", recs[0])
	}
	if recs[1].Cycles != 600 || recs[1].File != "/tmp/x.snap" {
		t.Errorf("checkpointed record mangled: %+v", recs[1])
	}
	if recs[2].Result == nil || recs[2].Result.Cycles != 1221 || !recs[2].Result.Completed {
		t.Errorf("completed record lost its result: %+v", recs[2])
	}
}

// TestJournalTruncatesTornTail simulates a crash mid-append (a partial
// frame at the end of the file): recovery must keep every intact record,
// truncate the residue, and accept new appends cleanly afterwards.
func TestJournalTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, _ := openTestJournal(t, path)
	mustAppend(t, j, JournalRecord{Kind: RecAccepted, ID: "job-000001", Req: &JobRequest{Workload: "dmm"}})
	mustAppend(t, j, JournalRecord{Kind: RecCheckpointed, ID: "job-000001", Cycles: 600, File: "/tmp/x.snap"})
	j.Close()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	goodSize := fi.Size()

	// A torn write: a frame header promising 200 bytes with only 3 behind it.
	torn := make([]byte, 11)
	binary.LittleEndian.PutUint32(torn[0:4], 200)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, recs := openTestJournal(t, path)
	if len(recs) != 2 {
		t.Fatalf("replayed %d records past torn tail, want 2", len(recs))
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != goodSize {
		t.Errorf("torn tail not truncated: size %d, want %d (%v)", fi.Size(), goodSize, err)
	}
	// Post-recovery appends land after the last intact record.
	mustAppend(t, j2, JournalRecord{Kind: RecCompleted, ID: "job-000001", Result: &JobResult{Key: "k"}})
	j2.Close()
	j3, recs := openTestJournal(t, path)
	defer j3.Close()
	if len(recs) != 3 || recs[2].Kind != RecCompleted {
		t.Fatalf("post-recovery append lost: %d records, last %+v", len(recs), recs[len(recs)-1])
	}
}

// TestJournalDropsCorruptTailRecord writes a fully-framed record whose
// checksum does not match its payload (bit rot or a torn rewrite):
// recovery must stop at the last intact record.
func TestJournalDropsCorruptTailRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, _ := openTestJournal(t, path)
	mustAppend(t, j, JournalRecord{Kind: RecAccepted, ID: "job-000001", Req: &JobRequest{Workload: "dmm"}})
	j.Close()

	payload := []byte(`{"kind":"checkpointed","id":"job-000001","cycles":600,"file":"/tmp/x.snap"}`)
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], 0xDEADBEEF) // wrong CRC
	copy(frame[8:], payload)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, recs := openTestJournal(t, path)
	defer j2.Close()
	if len(recs) != 1 || recs[0].Kind != RecAccepted {
		t.Fatalf("corrupt record not dropped: %d records", len(recs))
	}
}

// Journals as written before the worker stopped appending "started" and
// the coordinator shared the worker's records: literal payloads, one
// JSON record each, in the worker's and the coordinator's old formats.
var (
	oldWorkerJournal = []string{
		`{"kind":"accepted","id":"job-000001","req":{"workload":"dmm"}}`,
		`{"kind":"started","id":"job-000001"}`,
		`{"kind":"checkpointed","id":"job-000001","cycles":600,"file":"/snap/job-000001.snap"}`,
		`{"kind":"completed","id":"job-000001","result":{"id":"job-000001","key":"k1","cycles":1221,"completed":true}}`,
		`{"kind":"accepted","id":"job-000002","req":{"workload":"fir"}}`,
		`{"kind":"started","id":"job-000002"}`,
		`{"kind":"checkpointed","id":"job-000002","cycles":300,"file":"/snap/job-000002.snap"}`,
		`{"kind":"checkpointed","id":"job-000002","cycles":600,"file":"/snap/job-000002.snap.2"}`,
		`{"kind":"accepted","id":"job-000003","req":{"workload":"nonesuch"}}`,
		`{"kind":"started","id":"job-000003"}`,
		`{"kind":"failed","id":"job-000003","error":{"kind":"bad_request","message":"no such workload"}}`,
		`{"kind":"accepted","id":"client-7","req":{"workload":"gcd"}}`,
		`{"kind":"started","id":"client-7"}`,
	}
	oldCoordJournal = []string{
		`{"kind":"accepted","id":"fl-000001","req":{"workload":"dmm"}}`,
		`{"kind":"terminal","id":"fl-000001"}`,
		`{"kind":"accepted","id":"fl-000002","req":{"workload":"fir"}}`,
		`{"kind":"accepted","id":"dur-1","req":{"workload":"gcd"}}`,
		`{"kind":"terminal","id":"dur-1"}`,
		`{"kind":"accepted","id":"fl-000005","req":{"workload":"dmm"}}`,
	}
)

// replayLiteral writes payloads to a fresh journal file through the WAL
// framing, then reopens it and folds it the way a restart does.
func replayLiteral(t *testing.T, payloads []string, seqPrefix string) Replay {
	t.Helper()
	path := filepath.Join(t.TempDir(), "old.journal")
	log, _, err := wal.Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := log.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	log.Close()
	j, recs := openTestJournal(t, path)
	defer j.Close()
	return FoldJournal(recs, seqPrefix)
}

// TestFoldReplaysOldJournals: journals already on disk still replay to
// the pending set, latest checkpoint, results and sequence the old
// worker and coordinator folds computed.
func TestFoldReplaysOldJournals(t *testing.T) {
	pendingOf := func(rp Replay) map[string]string {
		m := map[string]string{}
		for _, p := range rp.Pending {
			if p.Req == nil {
				t.Errorf("pending %s lost its request", p.ID)
			}
			m[p.ID] = p.Checkpoint
		}
		return m
	}

	w := replayLiteral(t, oldWorkerJournal, "job-")
	wantW := map[string]string{"job-000002": "/snap/job-000002.snap.2", "client-7": ""}
	if got := pendingOf(w); !reflect.DeepEqual(got, wantW) {
		t.Errorf("worker pending = %v, want %v", got, wantW)
	}
	if len(w.Results) != 1 || w.Results[0].Key != "k1" || w.Results[0].Cycles != 1221 {
		t.Errorf("worker results = %+v, want job-000001's", w.Results)
	}
	if w.Seq != 3 {
		t.Errorf("worker sequence = %d, want 3", w.Seq)
	}

	c := replayLiteral(t, oldCoordJournal, "fl-")
	wantC := map[string]string{"fl-000002": "", "fl-000005": ""}
	if got := pendingOf(c); !reflect.DeepEqual(got, wantC) {
		t.Errorf("coordinator pending = %v, want %v", got, wantC)
	}
	if c.Seq != 5 {
		t.Errorf("coordinator sequence = %d, want 5", c.Seq)
	}
}

// TestFoldPendingOnceInAcceptanceOrder: a job ID accepted again after
// its terminal record is pending once, at its latest acceptance.
func TestFoldPendingOnceInAcceptanceOrder(t *testing.T) {
	rp := replayLiteral(t, []string{
		`{"kind":"accepted","id":"b","req":{"workload":"dmm"}}`,
		`{"kind":"accepted","id":"a","req":{"workload":"dmm"}}`,
		`{"kind":"completed","id":"b","result":{"key":"kb"}}`,
		`{"kind":"accepted","id":"b","req":{"workload":"fir"}}`,
	}, "job-")
	var got []string
	for _, p := range rp.Pending {
		got = append(got, p.ID+":"+p.Req.Workload)
	}
	if want := []string{"a:dmm", "b:fir"}; !reflect.DeepEqual(got, want) {
		t.Errorf("pending = %v, want %v", got, want)
	}
}
