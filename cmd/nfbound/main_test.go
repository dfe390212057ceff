package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestMfCurve(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-protocol", "cntexp", "-curve", "mf", "-n", "6"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "M_f-boundness") {
		t.Fatalf("output:\n%s", buf.String())
	}
}

func TestPfCurve(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-protocol", "cntlinear", "-curve", "pf", "-levels", "0, 4,16"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "P_f-boundness") || !strings.Contains(out, "17") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestErrors(t *testing.T) {
	tests := [][]string{
		{"-protocol", "nope"},
		{"-curve", "xx"},
		{"-curve", "pf", "-levels", "a,b"},
		{"-curve", "pf", "-levels", ""},
		{"-badflag"},
	}
	for _, args := range tests {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Fatalf("args %v should fail", args)
		}
	}
}

func TestParseLevels(t *testing.T) {
	ls, err := parseLevels(" 1, 2 ,3,")
	if err != nil || len(ls) != 3 || ls[2] != 3 {
		t.Fatalf("parseLevels = %v, %v", ls, err)
	}
	if _, err := parseLevels("-1"); err == nil {
		t.Fatal("negative level accepted")
	}
}

// TestCatalogueNames: -protocol resolves through the shared catalogue,
// so transport and parameterised names work as in every other binary.
func TestCatalogueNames(t *testing.T) {
	for _, name := range []string{"gbn-s4-w2", "cntk8"} {
		var buf bytes.Buffer
		if err := run([]string{"-protocol", name, "-n", "3"}, &buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(buf.String(), "M_f-boundness of "+name) {
			t.Fatalf("%s: output:\n%s", name, buf.String())
		}
	}
}
