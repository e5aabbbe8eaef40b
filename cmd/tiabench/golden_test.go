package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tia/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the golden files under docs/ from this build")

// TestGoldenOutputs holds the paper's output to the committed files in
// docs/, byte for byte: the default tiabench run (docs/tables.txt),
// -json (docs/results.json) and -listing for every kernel
// (docs/listings/<kernel>.txt). A change that moves a number must
// regenerate them with
//
//	go test ./cmd/tiabench -run TestGoldenOutputs -update
//
// and say why the numbers moved.
func TestGoldenOutputs(t *testing.T) {
	ctx := context.Background()
	p := workloads.Params{Seed: 1} // tiabench's defaults
	check := func(name string, render func(io.Writer) error) {
		t.Helper()
		var got bytes.Buffer
		if err := render(&got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		path := filepath.Join("..", "..", "docs", name)
		if *update {
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s differs from this build's output%s", path, firstDiff(string(want), got.String()))
		}
	}
	check("tables.txt", func(w io.Writer) error { return run(ctx, w, p, "all") })
	check("results.json", func(w io.Writer) error { return emitJSON(ctx, w, p) })
	for _, spec := range workloads.All() {
		check(filepath.Join("listings", spec.Name+".txt"), func(w io.Writer) error {
			return printListing(w, p, spec.Name)
		})
	}
}

// firstDiff names the first line where two texts differ.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("; first difference at line %d:\n  committed: %s\n  generated: %s", i+1, w, g)
		}
	}
	return ""
}
