package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/replay"
	"repro/internal/stabilize"
	"repro/internal/trace"
)

func runCmd(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw strings.Builder
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestNoArgsUsage(t *testing.T) {
	code, _, stderr := runCmd(t)
	if code != 2 || !strings.Contains(stderr, "usage:") {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
}

func TestHelpListsAnalyzers(t *testing.T) {
	code, stdout, _ := runCmd(t, "help")
	if code != 0 {
		t.Fatalf("help exited %d", code)
	}
	for _, name := range []string{
		"wallclock:", "globalrand:", "maprange:", "statekey:",
		"nextpkt:", "internlocal:", "freelist:",
	} {
		if !strings.Contains(stdout, name) {
			t.Errorf("help output lacks %s", name)
		}
	}
}

func TestAuditSingleProtocol(t *testing.T) {
	code, stdout, stderr := runCmd(t, "audit", "altbit")
	if code != 0 {
		t.Fatalf("audit altbit exited %d: %s", code, stderr)
	}
	for _, want := range []string{"protocol:  altbit", "k_t:       4", "k_r:       2", "verdict:   CERTIFIED"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("report lacks %q:\n%s", want, stdout)
		}
	}
}

func TestAuditAll(t *testing.T) {
	// stabdl2's 8-label alphabet exhausts at ~35k joint states, so the
	// smoke budget is 65536 rather than the old 16384.
	code, stdout, stderr := runCmd(t, "audit", "-all", "-maxstates", "65536")
	if code != 0 {
		t.Fatalf("audit -all exited %d: %s", code, stderr)
	}
	// Every registered protocol — core and transport — plus the
	// broken specimens gets a report.
	for _, name := range []string{
		"altbit", "cheat1", "cntexp", "cntk4", "cntlinear", "seqnum",
		"stabdl2", "stabnaive",
		"swindow-s4-w2", "swindow-unbounded-w2", "gbn-s4-w2", "gbn-s8-w4",
		"livelock", "cntnobind",
	} {
		if !strings.Contains(stdout, "protocol:  "+name+"\n") {
			t.Errorf("audit -all output lacks %s", name)
		}
	}
	if strings.Contains(stdout, "FAIL") {
		t.Errorf("audit -all reports a FAIL:\n%s", stdout)
	}
}

func TestAuditTransportByName(t *testing.T) {
	code, stdout, stderr := runCmd(t, "audit", "gbn-s4-w2")
	if code != 0 {
		t.Fatalf("audit gbn-s4-w2 exited %d: %s", code, stderr)
	}
	for _, want := range []string{"protocol:  gbn-s4-w2", "verdict:   CERTIFIED", "alphabet:  8 (bounded)"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("report lacks %q:\n%s", want, stdout)
		}
	}
}

func TestAuditSweep(t *testing.T) {
	code, stdout, stderr := runCmd(t, "audit", "-sweep", "-maxocc", "2", "-maxstates", "16384", "altbit", "gbn-s4-w2")
	if code != 0 {
		t.Fatalf("audit -sweep exited %d: %s", code, stderr)
	}
	lines := strings.Split(strings.TrimRight(stdout, "\n"), "\n")
	if lines[0] != "protocol\toccupancy\tstates\texact\tk_t\tk_r\tk_t*k_r\theaders" {
		t.Fatalf("sweep table header drifted: %q", lines[0])
	}
	if len(lines) != 5 {
		t.Fatalf("two protocols swept to occupancy 2 should emit 4 data rows, got %d:\n%s", len(lines)-1, stdout)
	}
	for _, want := range []string{"altbit\t1\t", "altbit\t2\t", "gbn-s4-w2\t1\t", "gbn-s4-w2\t2\t"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("sweep table lacks a %q row:\n%s", want, stdout)
		}
	}
}

func TestAuditSWSweep(t *testing.T) {
	code, stdout, stderr := runCmd(t, "audit", "-swsweep", "-maxs", "4", "-maxstates", "16384")
	if code != 0 {
		t.Fatalf("audit -swsweep exited %d: %s", code, stderr)
	}
	lines := strings.Split(strings.TrimRight(stdout, "\n"), "\n")
	if len(lines) < 2 || lines[1] != "family\tS\tW\tS*W\tk_t\tk_r\tk_t*k_r\tstates\texhausted" {
		t.Fatalf("swsweep table header drifted:\n%s", stdout)
	}
	// maxs=4 grid: (S=2, W=1) and (S=4, W=1..2) per family — 6 data rows.
	if len(lines) != 8 {
		t.Fatalf("want 6 data rows, got %d:\n%s", len(lines)-2, stdout)
	}
	for _, want := range []string{
		"swindow\t2\t1\t2\t", "swindow\t4\t2\t8\t",
		"gbn\t2\t1\t2\t", "gbn\t4\t2\t8\t",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("swsweep table lacks a %q row:\n%s", want, stdout)
		}
	}
}

func TestSWSweepGridSizing(t *testing.T) {
	for _, r := range swSweepGrid(8) {
		if 2*r.W > r.S {
			t.Errorf("grid emitted undersized space %s S=%d W=%d (needs S >= 2W)", r.Family, r.S, r.W)
		}
	}
	if n := len(swSweepGrid(8)); n != 20 {
		t.Errorf("maxs=8 grid has %d points, want 20 (10 per family)", n)
	}
}

func TestVerifyProvesSoundProtocol(t *testing.T) {
	code, stdout, stderr := runCmd(t, "verify", "seqnum")
	if code != 0 {
		t.Fatalf("verify seqnum exited %d: %s", code, stderr)
	}
	for _, want := range []string{"verdict:    PROVED", "check:      CERTIFIED", "(exhausted)"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("report lacks %q:\n%s", want, stdout)
		}
	}
}

func TestVerifyWritesReplayableWitness(t *testing.T) {
	// -o points at a directory that does not exist yet: verify must create it.
	dir := filepath.Join(t.TempDir(), "certs")
	code, stdout, stderr := runCmd(t, "verify", "-o", dir, "altbit")
	if code != 0 {
		t.Fatalf("verify altbit exited %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "VIOLATED (DL1)") {
		t.Fatalf("altbit not violated:\n%s", stdout)
	}
	path := filepath.Join(dir, "altbit-DL1.nft")
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("witness file: %v", err)
	}
	defer f.Close()
	wl, err := trace.ReadLog(f)
	if err != nil {
		t.Fatalf("witness decode: %v", err)
	}
	rr, err := replay.Run(wl)
	if err != nil {
		t.Fatalf("witness replay: %v", err)
	}
	if rr.Divergence != nil || rr.Verdict == nil || rr.Verdict.Property != "DL1" {
		t.Fatalf("witness does not reproduce DL1: divergence=%v verdict=%v", rr.Divergence, rr.Verdict)
	}
}

func TestVerifyJSONReport(t *testing.T) {
	code, stdout, stderr := runCmd(t, "verify", "-json", "seqnum")
	if code != 0 {
		t.Fatalf("verify -json exited %d: %s", code, stderr)
	}
	var rep struct {
		Protocol  string `json:"protocol"`
		Verdict   string `json:"verdict"`
		Check     string `json:"check"`
		Exhausted bool   `json:"exhausted"`
		SpaceHash string `json:"spaceHash"`
	}
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, stdout)
	}
	if rep.Protocol != "seqnum" || rep.Verdict != "PROVED" || rep.Check != "CERTIFIED" ||
		!rep.Exhausted || rep.SpaceHash == "" {
		t.Fatalf("JSON report fields drifted: %+v", rep)
	}
}

// `verify -stabilize` judges each protocol from every bounded corrupted
// start: stabdl2 is proved convergent, stabnaive certified divergent with a
// replay-confirmed witness, and both verdicts match the declarations.
func TestStabilizeSweepReports(t *testing.T) {
	code, stdout, stderr := runCmd(t, "verify", "-stabilize", "stabdl2", "stabnaive")
	if code != 0 {
		t.Fatalf("verify -stabilize exited %d: %s", code, stderr)
	}
	for _, want := range []string{
		"protocol:   stabdl2\n",
		"stabilize:  81 corrupted seed(s), max poison 1/channel",
		"verdict:    PROVED",
		"declared:   self-stabilizing",
		"protocol:   stabnaive\n",
		"stabilize:  16 corrupted seed(s)",
		"verdict:    VIOLATED",
		"replay-confirmed",
		"declared:   not self-stabilizing",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("report lacks %q:\n%s", want, stdout)
		}
	}
	if n := strings.Count(stdout, "check:      CERTIFIED"); n != 2 {
		t.Errorf("%d CERTIFIED checks, want 2:\n%s", n, stdout)
	}
}

// The machine-readable stabilize report names the seed space and the
// diverging seed, and -o writes a witness that replays bit for bit from
// the corrupted start to the recorded verdict.
func TestStabilizeTableAndWitness(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "scerts")
	code, stdout, stderr := runCmd(t, "verify", "-stabilize", "-json", "-o", dir, "altbit")
	if code != 0 {
		t.Fatalf("verify -stabilize -json exited %d: %s", code, stderr)
	}
	var rep struct {
		Verdict          string `json:"verdict"`
		Property         string `json:"property"`
		Check            string `json:"check"`
		Stabilize        bool   `json:"stabilize"`
		Seeds            int    `json:"seeds"`
		Seed             string `json:"seed"`
		WitnessConfirmed bool   `json:"witnessConfirmed"`
	}
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, stdout)
	}
	if !rep.Stabilize || rep.Seeds != 54 || rep.Verdict != "VIOLATED" || rep.Check != "CERTIFIED" ||
		rep.Seed == "" || !rep.WitnessConfirmed {
		t.Fatalf("JSON stabilize report drifted: %+v", rep)
	}
	wl, err := trace.ReadFile(filepath.Join(dir, "altbit-"+rep.Property+".nft"))
	if err != nil {
		t.Fatalf("witness: %v", err)
	}
	if got := wl.Meta[stabilize.MetaCorruption]; got != rep.Seed {
		t.Errorf("witness corruption meta %q, want the reported seed %q", got, rep.Seed)
	}
	rr, err := replay.Run(wl)
	if err != nil {
		t.Fatalf("witness replay: %v", err)
	}
	if rr.Divergence != nil || !rr.VerdictMatches {
		t.Fatalf("witness replay: divergence=%v verdict matches=%v", rr.Divergence, rr.VerdictMatches)
	}
}

func TestStabilizeUnknownProtocol(t *testing.T) {
	code, _, stderr := runCmd(t, "verify", "-stabilize", "nosuch")
	if code != 2 || !strings.Contains(stderr, "unknown protocol") {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
}

// A bare word that is not a subcommand — a typo, or the retired
// `stabilize` sweep (now `verify -stabilize`) — is a usage error (exit 2),
// not a vet-driver argument: exit 1 is reserved for findings and FAIL
// verdicts. Flags still reach the vet driver.
func TestUnknownSubcommandUsage(t *testing.T) {
	for _, word := range []string{"stabilize", "nosuch"} {
		code, stdout, stderr := runCmd(t, word, "-all")
		if code != 2 || stdout != "" || !strings.Contains(stderr, "usage:") ||
			!strings.Contains(stderr, `unknown subcommand "`+word+`"`) {
			t.Errorf("nfvet %s: code=%d stdout=%q stderr=%q, want usage on stderr and exit 2", word, code, stdout, stderr)
		}
	}
	code, _, stderr := runCmd(t, "-V=full")
	if code != 0 || stderr != "" {
		t.Fatalf("-V=full: code=%d stderr=%q, want the vet driver's banner", code, stderr)
	}
}

func TestVerifyUnknownProtocol(t *testing.T) {
	code, _, stderr := runCmd(t, "verify", "nosuch")
	if code != 2 || !strings.Contains(stderr, "unknown protocol") {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
}

func TestAuditUnknownProtocol(t *testing.T) {
	code, _, stderr := runCmd(t, "audit", "nosuch")
	if code != 2 || !strings.Contains(stderr, "unknown protocol") {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
}

func TestAuditJSONReport(t *testing.T) {
	code, stdout, stderr := runCmd(t, "audit", "-json", "altbit")
	if code != 0 {
		t.Fatalf("audit -json exited %d: %s", code, stderr)
	}
	var rep struct {
		Protocol  string `json:"protocol"`
		Verdict   string `json:"verdict"`
		KT        int    `json:"kt"`
		KR        int    `json:"kr"`
		Exhausted bool   `json:"exhausted"`
	}
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, stdout)
	}
	if rep.Protocol != "altbit" || rep.Verdict != "CERTIFIED" || rep.KT != 4 || rep.KR != 2 || !rep.Exhausted {
		t.Fatalf("JSON report fields drifted: %+v", rep)
	}
}

func TestAuditJSONRejectsSweeps(t *testing.T) {
	code, _, stderr := runCmd(t, "audit", "-json", "-sweep", "altbit")
	if code != 2 || !strings.Contains(stderr, "-json applies to verdict reports") {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
}

// vetmodPath is the checked-in two-package facts fixture module under
// internal/analyze/testdata.
func vetmodPath(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(wd, "..", "..", "internal", "analyze", "testdata", "vetmod")
}

// TestCheckJSONFactsFixture drives the standalone loader end to end over the
// facts fixture: the cross-package statekey finding appears in -json output
// with facts on, and vanishes with -nofacts.
func TestCheckJSONFactsFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list; skipped in -short")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(vetmodPath(t)); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()

	code, stdout, stderr := runCmd(t, "check", "-json", "./...")
	if code != 1 {
		t.Fatalf("check -json exited %d, want 1: %s%s", code, stdout, stderr)
	}
	var diags []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
		Allowed  bool   `json:"allowed"`
	}
	if err := json.Unmarshal([]byte(stdout), &diags); err != nil {
		t.Fatalf("check -json output is not valid JSON: %v\n%s", err, stdout)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %+v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "statekey" || d.Allowed ||
		!strings.Contains(d.Message, "StateKey calls helper.Render") ||
		!strings.HasSuffix(d.File, "keys.go") || d.Line == 0 {
		t.Fatalf("unexpected diagnostic: %+v", d)
	}

	code, stdout, stderr = runCmd(t, "check", "-nofacts", "./...")
	if code != 0 {
		t.Fatalf("check -nofacts exited %d, want 0 (the finding needs the facts channel): %s%s", code, stdout, stderr)
	}
}

func TestCheckCleanPackage(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list; skipped in -short")
	}
	code, stdout, stderr := runCmd(t, "check", "repro/internal/mset")
	if code != 0 {
		t.Fatalf("check exited %d: %s%s", code, stdout, stderr)
	}
}

func TestVettoolBanner(t *testing.T) {
	// cmd/go requires "<name> version devel ... buildID=<hash>".
	// VettoolMain prints to the real stdout; only the exit code is checked
	// here — the full protocol is exercised by TestGoVetIntegration.
	code, _, _ := runCmd(t, "-V=full")
	if code != 0 {
		t.Fatalf("-V=full exited %d", code)
	}
}

// TestGoVetIntegration builds nfvet and drives it through the real go vet
// -vettool protocol over a lint-clean package and a package with a known
// finding, checking both exit statuses.
func TestGoVetIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and runs go vet; skipped in -short")
	}
	tool := filepath.Join(t.TempDir(), "nfvet")
	build := exec.Command("go", "build", "-o", tool, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building nfvet: %v\n%s", err, out)
	}

	vet := exec.Command("go", "vet", "-vettool="+tool, "repro/internal/mset", "repro/internal/protocol")
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool over clean packages: %v\n%s", err, out)
	}

	// A module with a finding: synthesize one in a temp dir.
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module vetfixture\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "main.go"), `package main

import "math/rand"

func main() {
	_ = rand.Intn(10)
}
`)
	vet = exec.Command("go", "vet", "-vettool="+tool, ".")
	vet.Dir = dir
	out, err := vet.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -vettool passed a package with a globalrand finding:\n%s", out)
	}
	if !strings.Contains(string(out), "rand.Intn uses the process-global source") {
		t.Fatalf("vet output lacks the expected finding:\n%s", out)
	}
}

// TestGoVetFactsIntegration drives the facts fixture through the real
// cmd/go vet driver: cmd/go runs the helper unit VetxOnly, feeds its vetx to
// the keys unit via PackageVetx, and the cross-package statekey finding must
// surface in the vet output.
func TestGoVetFactsIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and runs go vet; skipped in -short")
	}
	tool := filepath.Join(t.TempDir(), "nfvet")
	build := exec.Command("go", "build", "-o", tool, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building nfvet: %v\n%s", err, out)
	}

	vet := exec.Command("go", "vet", "-vettool="+tool, "./...")
	vet.Dir = vetmodPath(t)
	out, err := vet.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -vettool passed the facts fixture; the vetx channel regressed to empty:\n%s", out)
	}
	if !strings.Contains(string(out), "StateKey calls helper.Render") ||
		!strings.Contains(string(out), "fmt.Sprint") {
		t.Fatalf("vet output lacks the cross-package chain:\n%s", out)
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyAltbitBroken(t *testing.T) {
	code, stdout, stderr := runCmd(t, "verify", "-maxmsg", "2", "altbit")
	if code != 0 {
		t.Fatalf("verify altbit exited %d: %s", code, stderr)
	}
	for _, want := range []string{"verdict:    VIOLATED (DL1)", "replay-confirmed", "check:      CERTIFIED"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("report lacks %q:\n%s", want, stdout)
		}
	}
}

// TestVerifyAltbitFIFOSafe: over the FIFO channel every protocol that falls
// to reordering is PROVED, and no declaration is contradicted.
func TestVerifyAltbitFIFOSafe(t *testing.T) {
	code, stdout, stderr := runCmd(t, "verify", "-fifo", "altbit", "cheat1", "seqnum", "cntlinear")
	if code != 0 {
		t.Fatalf("verify -fifo exited %d: %s", code, stderr)
	}
	if n := strings.Count(stdout, "verdict:    PROVED"); n != 4 {
		t.Fatalf("%d PROVED verdicts, want 4:\n%s", n, stdout)
	}
	for _, want := range []string{"channel:    FIFO", "por:        off (FIFO discipline)", "check:      OBSERVED"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("report lacks %q:\n%s", want, stdout)
		}
	}
}

func TestVerifySwindow(t *testing.T) {
	code, stdout, stderr := runCmd(t, "verify", "swindow-s2-w1")
	if code != 0 {
		t.Fatalf("verify swindow-s2-w1 exited %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "verdict:    VIOLATED") {
		t.Fatalf("bounded sequence space not broken:\n%s", stdout)
	}
}

func TestVerifySwindowUnbounded(t *testing.T) {
	code, stdout, stderr := runCmd(t, "verify", "swindow-unbounded-w2")
	if code != 0 {
		t.Fatalf("verify swindow-unbounded-w2 exited %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "verdict:    PROVED") {
		t.Fatalf("unbounded sequence space not PROVED:\n%s", stdout)
	}
}

func TestVerifyBudgetOnTinyBudget(t *testing.T) {
	code, stdout, stderr := runCmd(t, "verify", "-maxstates", "10", "seqnum")
	if code != 0 {
		t.Fatalf("verify exited %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "verdict:    BUDGET") || !strings.Contains(stdout, "budget 10 hit") {
		t.Fatalf("tiny budget not reported:\n%s", stdout)
	}
}

func TestVerifySpecialProtocols(t *testing.T) {
	for _, name := range []string{"livelock", "cntnobind"} {
		if code, stdout, stderr := runCmd(t, "verify", "-maxmsg", "2", name); code != 0 {
			t.Fatalf("%s exited %d: %s\n%s", name, code, stderr, stdout)
		}
	}
}

func TestVerifyFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"verify", "-badflag", "altbit"},
		{"verify"},
		{"verify", "-fifo", "-stabilize", "altbit"},
	} {
		if code, _, _ := runCmd(t, args...); code != 2 {
			t.Errorf("args %v exited %d, want 2", args, code)
		}
	}
}
