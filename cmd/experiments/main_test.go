package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenTranscript runs every experiment and compares the printed
// transcript with testdata/experiments.golden line by line, so a change
// that moves any reported number fails here. After an intended change,
// regenerate the transcript with
//
//	go run ./cmd/experiments > cmd/experiments/testdata/experiments.golden
func TestGoldenTranscript(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "experiments.golden"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.Create(filepath.Join(t.TempDir(), "transcript"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	failed := runExperiments(context.Background(), nil)
	os.Stdout = stdout
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if failed > 0 {
		t.Errorf("%d experiments failed", failed)
	}
	gotLines := strings.Split(string(got), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("transcript differs from the golden file at line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}
