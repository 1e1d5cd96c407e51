package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestProfileFlagsNeedProfiledMode requires -profile-out and -profile-in to
// be usage errors (exit 2) under a mode that takes no value profile, instead
// of being silently ignored, and requires no profile file to be written.
func TestProfileFlagsNeedProfiledMode(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "p.json")
	for _, args := range [][]string{
		{"-bench", "kmeans", "-mode", "dup", "-profile-out", out},
		{"-bench", "kmeans", "-mode", "dup", "-profile-in", filepath.Join(dir, "missing.json")},
		{"-bench", "kmeans", "-profile-out", out},
	} {
		if err := runSolo(args, io.Discard, io.Discard); !errors.As(err, new(usageError)) {
			t.Errorf("%q: got %v, want a usage error", args, err)
		}
	}
	if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a rejected -profile-out still wrote %s (stat: %v)", out, err)
	}
}

// TestProfileRoundTrip saves a profile with -profile-out and protects with
// it through -profile-in: the protected IR and its statistics must match the
// freshly profiled build's.
func TestProfileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kmeans.prof")
	var fresh, loaded bytes.Buffer
	if err := runSolo([]string{"-bench", "kmeans", "-mode", "dupval", "-stats", "-dump", "-profile-out", path}, &fresh, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := runSolo([]string{"-bench", "kmeans", "-mode", "dupval", "-stats", "-dump", "-profile-in", path}, &loaded, io.Discard); err != nil {
		t.Fatal(err)
	}
	if fresh.Len() == 0 || !bytes.Equal(fresh.Bytes(), loaded.Bytes()) {
		t.Errorf("-profile-in build differs from the -profile-out one:\n--- fresh\n%s--- loaded\n%s", fresh.String(), loaded.String())
	}
}
