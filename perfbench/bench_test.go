package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	nonfifo "repro"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {0.95, 10}, {1, 10}, {0.01, 1}} {
		got, n := percentile(xs, c.q)
		if got != c.want || n != len(xs) {
			t.Errorf("percentile(q=%g) = %g over %d samples, want %g over %d", c.q, got, n, c.want, len(xs))
		}
	}
	if v, n := percentile(nil, 0.5); v != 0 || n != 0 {
		t.Errorf("percentile of no samples = %g over %d, want 0 over 0", v, n)
	}
	if xs[0] != 10 {
		t.Error("percentile reordered its input")
	}
	// Three samples of 1, one of 10: the median is 1, the top quartile 10.
	ws := []float64{10, 1}
	if p50, p90 := weightedPercentile(ws, []float64{1, 3}, 0.5), weightedPercentile(ws, []float64{1, 3}, 0.9); p50 != 1 || p90 != 10 {
		t.Errorf("weighted p50, p90 = %g, %g, want 1, 10", p50, p90)
	}
	if got := weightedPercentile(ws, []float64{0, 0}, 0.5); got != 0 {
		t.Errorf("weighted percentile over no weight = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even sample = %g, want 2.5", got)
	}
}

func TestSelfTimesSubtractNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.round", StartUS: 0, EndUS: 100},
		{ID: 2, Parent: 1, Name: "verify.Verify", StartUS: 10, EndUS: 40},
		// Overlaps its sibling, as concurrent workers' spans do: the
		// parent's covered time is the union, 10..60.
		{ID: 3, Parent: 1, Name: "netlink.RunSession", StartUS: 30, EndUS: 60},
		{ID: 4, Parent: 2, Name: "replay.Replay", StartUS: 15, EndUS: 20},
		{ID: 5, Parent: 1, Name: "trace.Put", StartUS: 90, EndUS: -1}, // still open: skipped
	}
	got := selfTimes(spans)
	want := map[string]float64{"bench": 50e-6, "verify": 25e-6, "netlink": 30e-6, "replay": 5e-6}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer("w")
	id := tr.start(0, "verify.Verify")
	tr.end(id)
	if d := tr.timed(0, "fuzz.Fuzz", func() {}); d < 0 {
		t.Errorf("timed returned %v", d)
	}
	if n := len(tr.snapshot()); n != 0 {
		t.Errorf("disabled tracer recorded %d spans", n)
	}
	tr.enable(true)
	root := tr.start(0, "bench.round")
	tr.timed(root, "fuzz.Fuzz", func() {})
	tr.end(root)
	s := tr.snapshot()
	if len(s) != 2 || s[1].Parent != s[0].ID || s[0].Workload != "w" || s[1].EndUS < s[1].StartUS {
		t.Errorf("spans = %+v", s)
	}
}

func TestRatioKeepsItsBase(t *testing.T) {
	r := ratio{num: 3, den: 4}
	if r.value() != 0.75 || r.num != 3 || r.den != 4 {
		t.Errorf("ratio{3, 4} = %g (base %g/%g)", r.value(), r.num, r.den)
	}
	if z := (ratio{num: 5}).value(); z != 0 {
		t.Errorf("ratio over an empty base = %g, want 0", z)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndCaps(t *testing.T) {
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	maxBound := 0.0
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: malformed unit %q", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	if m := endToEnd[0]; m.Name != "setup_s" || m.Unit != "s" || m.Better != "lower" || m.Bound != maxBound {
		t.Errorf("first end-to-end metric = %+v, want setup_s in s, lower, with the largest bound", m)
	}
	for _, m := range perLayer {
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from endToEnd:\n%+v\n%+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from perLayer")
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if want := workloadNames(); !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
}

// TestJobsAgreeWithDeclarations keeps the explore job table's known answers
// tied to the protocols' own declarations wherever a protocol makes one.
func TestJobsAgreeWithDeclarations(t *testing.T) {
	for _, j := range append(append([]verifyJob(nil), verifyJobs...), tinyVerifyJobs...) {
		p, err := lookupProtocol(j.proto)
		if err != nil {
			t.Fatal(err)
		}
		occ, msgs := j.cfg.Occupancy, j.cfg.MaxMessages
		if occ == 0 {
			occ = 2
		}
		if msgs == 0 {
			msgs = 3
		}
		if j.cfg.Stabilize {
			s, ok := p.(interface{ SelfStabilizing() bool })
			if !ok {
				t.Errorf("%s: stabilize job on a protocol without a StabilizeStatus declaration", j.proto)
				continue
			}
			if want := map[bool]string{true: "PROVED", false: "VIOLATED"}[s.SelfStabilizing()]; j.want != want {
				t.Errorf("%s stabilize: want %s, declaration says %s", j.proto, j.want, want)
			}
			continue
		}
		d, ok := p.(interface{ AttackBounds() (int, int) })
		if !ok {
			continue // transport adapters: answers from EXPERIMENTS.md
		}
		o, m := d.AttackBounds()
		switch {
		case o == 0 && m == 0 && j.want == "VIOLATED":
			t.Errorf("%s is declared sound, job expects VIOLATED", j.proto)
		case (o != 0 || m != 0) && occ >= o && msgs >= m && j.want != "VIOLATED":
			t.Errorf("%s is declared attackable at (%d, %d) <= (%d, %d), job expects %s", j.proto, o, m, occ, msgs, j.want)
		}
	}
	for _, c := range append(append([]campaignSpec(nil), violatingPanel...), soundPanel...) {
		p, err := lookupProtocol(c.proto)
		if err != nil {
			t.Fatal(err)
		}
		if d, ok := p.(interface{ AttackBounds() (int, int) }); ok {
			o, m := d.AttackBounds()
			if sound := o == 0 && m == 0; sound != (c.want == "") {
				t.Errorf("campaign on %s expects %q, declaration says sound=%v", c.proto, c.want, sound)
			}
		}
	}
	if _, err := lookupProtocol("nosuch"); err == nil {
		t.Error("lookupProtocol accepted an unknown name")
	}
	if got := declaredAudit(nonfifo.SeqNum()); got != "CONSISTENT" {
		t.Errorf("declaredAudit(seqnum) = %s", got)
	}
}

// TestRunFromTempDir runs every workload at the tiny size, untraced and
// traced, from a temporary working directory with its own TMPDIR: each run
// must pass its correctness gate, report exactly the declared metrics with
// their units, and leave no temporary file behind.
func TestRunFromTempDir(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	cwd, tmp := t.TempDir(), t.TempDir()
	if err := os.Chdir(cwd); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	t.Setenv("TMPDIR", tmp)

	for _, name := range workloadNames() {
		for _, traced := range []string{"0", "1"} {
			var out, errw bytes.Buffer
			code := run([]string{"--workload", name, "--seed", "7", "--seconds", "0.05",
				"--trace", traced, "--size", "tiny", "--spans", "spans.jsonl"}, &out, &errw)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d: %s", name, traced, code, errw.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not the result: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: gate %d/%d failed:\n%s", name, traced, res.Failed, res.Attempted, out.String())
			}
			want := endToEnd
			if traced == "1" {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%s: metric %s missing", name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%s: metric %s in %q, want %q", name, traced, m.Name, got.Unit, m.Unit)
				case traced == "0" && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %g", name, m.Name, got.Value)
				}
			}
		}
	}
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("runs left %d entries in TMPDIR, first %s", len(left), left[0].Name())
	}
	if _, err := os.Stat("spans.jsonl"); err != nil {
		t.Errorf("traced run wrote no spans file: %v", err)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nosuch"},
		{"--workload", "explore", "--trace", "2"},
		{"--workload", "explore", "--size", "huge"},
		{"--bogus"},
	} {
		var out, errw bytes.Buffer
		if code := run(args, &out, &errw); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
		if strings.Contains(out.String(), `"correct"`) {
			t.Errorf("run(%v) printed a result", args)
		}
	}
}
