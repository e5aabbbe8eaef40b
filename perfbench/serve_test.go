package main

import (
	"encoding/json"
	"testing"

	"tia/internal/service"
)

// TestSameResult pins the hit check to the service's encoding of a
// JobResult: a hit differs from its cold result only in id and cached.
func TestSameResult(t *testing.T) {
	enc := func(r service.JobResult) []byte {
		raw, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	cold := service.JobResult{ID: "j-1", Key: "k", Fingerprint: "f", Cycles: 42, Completed: true,
		Sinks: map[string][]string{"out": {"1", "2", "0#1"}}}
	hit := cold
	hit.ID, hit.Cached = "j-2", true
	if !sameResult(enc(hit), enc(cold)) {
		t.Error("a hit that differs only in id and cached compares unequal")
	}
	other := hit
	other.Sinks = map[string][]string{"out": {"1", "3", "0#1"}}
	if sameResult(enc(other), enc(cold)) {
		t.Error("a hit with other sinks compares equal")
	}
	other = hit
	other.Key = "k2"
	if sameResult(enc(other), enc(cold)) {
		t.Error("a hit with another key compares equal")
	}
	if sameResult([]byte(`{}`), enc(cold)) {
		t.Error("a reply without the fields compares equal")
	}
}
