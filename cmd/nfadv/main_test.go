package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/trace"
)

func TestReplayAltbitBroken(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-attack", "replay", "-protocol", "altbit"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "BROKEN") {
		t.Fatalf("expected BROKEN:\n%s", buf.String())
	}
}

func TestReplayFullCert(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-attack", "replay", "-protocol", "altbit", "-full-cert"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "VIOLATION CERTIFICATE") {
		t.Fatalf("expected full certificate:\n%s", buf.String())
	}
}

func TestReplayWritesTraceFile(t *testing.T) {
	path := t.TempDir() + "/v.nft"
	var buf bytes.Buffer
	if err := run([]string{"-attack", "replay", "-protocol", "altbit", "-o", path}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "replayable trace written") {
		t.Fatalf("missing trace confirmation:\n%s", buf.String())
	}
	l, err := trace.ReadFile(path)
	if err != nil {
		t.Fatalf("reading written trace: %v", err)
	}
	v, ok := l.Verdict()
	if !ok || v == nil || v.Property != "DL1" {
		t.Fatalf("trace verdict = %v, %v; want DL1", v, ok)
	}
	if l.Meta[trace.MetaProtocol] != "altbit" {
		t.Fatalf("trace protocol meta = %q", l.Meta[trace.MetaProtocol])
	}
}

func TestPumpRejectsTraceFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-attack", "pump", "-protocol", "livelock", "-o", "/tmp/x.nft"}, &buf); err == nil {
		t.Fatal("pump accepted -o")
	}
}

func TestReplaySeqnumResists(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-attack", "replay", "-protocol", "seqnum"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "RESISTED") {
		t.Fatalf("expected RESISTED:\n%s", buf.String())
	}
}

func TestHeaderBudgetCheat(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-attack", "headerbudget", "-protocol", "cheat1", "-messages", "3"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "BROKEN") {
		t.Fatalf("expected BROKEN:\n%s", buf.String())
	}
}

func TestHeaderBudgetUnboundedAlphabet(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-attack", "headerbudget", "-protocol", "seqnum"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "inapplicable") {
		t.Fatalf("expected inapplicable:\n%s", buf.String())
	}
}

func TestPumpLivelock(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-attack", "pump", "-protocol", "livelock"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "PUMPED") {
		t.Fatalf("expected PUMPED:\n%s", buf.String())
	}
}

func TestPumpCloses(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-attack", "pump", "-protocol", "seqnum"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "CLOSED") {
		t.Fatalf("expected CLOSED:\n%s", buf.String())
	}
}

func TestErrors(t *testing.T) {
	tests := [][]string{
		{"-attack", "nope"},
		{"-protocol", "nope"},
		{"-badflag"},
	}
	for _, args := range tests {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Fatalf("args %v should fail", args)
		}
	}
}

func TestReplayJSONCertificate(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-attack", "replay", "-protocol", "altbit", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Skip the human-readable setup line; the JSON object starts on its
	// own line.
	start := strings.Index(out, "\n{")
	if start < 0 {
		t.Fatalf("no JSON object:\n%s", out)
	}
	start++
	var cert struct {
		Protocol  string `json:"protocol"`
		Violation struct {
			Property string `json:"property"`
		} `json:"violation"`
		Trace []struct {
			Kind string `json:"kind"`
		} `json:"trace"`
	}
	if err := json.Unmarshal([]byte(out[start:]), &cert); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if cert.Protocol != "altbit" || cert.Violation.Property != "DL1" || len(cert.Trace) == 0 {
		t.Fatalf("certificate content wrong: %+v", cert)
	}
	if cert.Trace[0].Kind != "send_msg" {
		t.Fatalf("kind should serialise as text: %+v", cert.Trace[0])
	}
}

// TestCatalogueNames: -protocol resolves through the shared catalogue, so
// parameterised and transport names work as in every other binary.
func TestCatalogueNames(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-attack", "replay", "-protocol", "cheat2"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "BROKEN: DL1") {
		t.Fatalf("cheat2 should fall to the replay attack:\n%s", buf.String())
	}
	buf.Reset()
	if err := run([]string{"-attack", "replay", "-protocol", "swindow-s4-w2"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "RESISTED") {
		t.Fatalf("swindow-s4-w2 with two stale copies should resist:\n%s", buf.String())
	}
}
