package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunDefault(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"protocol", "seqnum", "10 delivered", "PL1 ✓"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunAllRegistryProtocols also runs a transport and a parameterised
// name: -protocol resolves through the shared catalogue (LookupProtocol).
func TestRunAllRegistryProtocols(t *testing.T) {
	for _, name := range []string{"altbit", "cntlinear", "cntexp", "cntk4", "cheat1", "swindow-s4-w2", "cntk8"} {
		var buf bytes.Buffer
		if err := run([]string{"-protocol", name, "-n", "3"}, &buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestRunProbabilistic(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-protocol", "cntlinear", "-n", "4", "-q", "0.3", "-q-ack", "0.2", "-seed", "5"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunDelayFirstAndTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-delay-first", "3", "-n", "2", "-trace"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "send_msg") {
		t.Fatalf("trace missing:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "peak in transit   3") {
		t.Fatalf("in-transit missing:\n%s", buf.String())
	}
}

func TestRunSameMessageConvention(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-same-message", "-n", "3"}, &buf); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	tests := [][]string{
		{"-protocol", "nope"},
		{"-q", "1.5"},
		{"-q", "0.3", "-drop-every", "2"}, // conflicting policies
		{"-badflag"},
	}
	for _, args := range tests {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Fatalf("args %v should fail", args)
		}
	}
}

func TestRunStalledBudget(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-drop-every", "1", "-budget", "200", "-n", "1"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("expected stall error, got %v", err)
	}
}

func TestPerMessage(t *testing.T) {
	if got := perMessage(nil); got != "-" {
		t.Fatalf("perMessage(nil) = %q", got)
	}
	if got := perMessage([]int{3, 1, 2}); !strings.Contains(got, "min 1") || !strings.Contains(got, "max 3") {
		t.Fatalf("perMessage = %q", got)
	}
}
