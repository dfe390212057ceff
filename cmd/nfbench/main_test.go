package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunWritesArtifact drives the command with tiny budgets and checks the
// JSON artifact's shape: all nine workloads present (including the
// interned-vs-string A/B rows, the lint-throughput row and the real-socket
// soak row), positive work and rates, and the label threaded through.
func TestRunWritesArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var out, errw bytes.Buffer
	code := run([]string{
		"-label", "unit", "-o", path,
		"-verifybudget", "512", "-fuzzbudget", "200", "-soaksessions", "16",
	}, &out, &errw)
	if code != 0 {
		t.Fatalf("nfbench exited %d: %s", code, errw.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var art Artifact
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if art.Label != "unit" || art.GoVersion == "" {
		t.Errorf("artifact header = %+v", art)
	}
	want := []string{
		"verify/seqnum", "verify/cntexp",
		"verify/stabdl2-stabilize", "fuzz/altbit",
		"fuzzexec/altbit-interned",
		"analyze/lint", "netlink/soak",
	}
	if len(art.Benchmarks) != len(want) {
		t.Fatalf("got %d benchmarks, want %d", len(art.Benchmarks), len(want))
	}
	for i, b := range art.Benchmarks {
		if b.Name != want[i] {
			t.Errorf("benchmark %d = %q, want %q", i, b.Name, want[i])
		}
		if b.Work <= 0 || b.Rate <= 0 {
			t.Errorf("%s: work=%d rate=%f, want positive", b.Name, b.Work, b.Rate)
		}
	}
	// seqnum is exhaustively proved even at tiny budgets elsewhere; its
	// detail records the verdict the artifact is meant to witness.
	if !strings.Contains(art.Benchmarks[0].Detail, "verdict=PROVED") {
		t.Errorf("verify/seqnum detail = %q, want a PROVED verdict", art.Benchmarks[0].Detail)
	}
}

// TestRunBadFlag pins the CLI error path.
func TestRunBadFlag(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-nosuch"}, &out, &errw); code != 2 {
		t.Fatalf("bad flag exited %d, want 2", code)
	}
}
