package core

import (
	"bytes"
	"strings"
	"testing"
)

func TestE0ShapesMatchTheorem(t *testing.T) {
	res, err := RunE0()
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]E0Outcome)
	for _, o := range res.Outcomes {
		got[o.Protocol] = o
	}
	if !got["altbit"].Broken || got["altbit"].Property != "DL1" {
		t.Fatalf("altbit should be broken with DL1: %+v", got["altbit"])
	}
	for _, p := range []string{"seqnum", "cntlinear", "cntexp"} {
		if got[p].Broken {
			t.Fatalf("%s should resist: %+v", p, got[p])
		}
	}
	if res.Cert == nil {
		t.Fatal("E0 should carry the altbit certificate")
	}
	if err := res.Cert.Recheck(); err != nil {
		t.Fatalf("certificate recheck: %v", err)
	}
	tbl := res.Table()
	if len(tbl.Rows) != 4 {
		t.Fatalf("table rows = %d", len(tbl.Rows))
	}
}

func TestE1WithinProduct(t *testing.T) {
	res, err := RunE1()
	if err != nil {
		t.Fatal(err)
	}
	if res.KT != 4 || res.KR != 2 {
		t.Fatalf("altbit k_t, k_r = %d, %d, want 4, 2", res.KT, res.KR)
	}
	if res.MaxBoundness > res.KT*res.KR {
		t.Fatalf("Theorem 2.1 violated by measurement: boundness %d > %d·%d",
			res.MaxBoundness, res.KT, res.KR)
	}
	if !res.Pumped {
		t.Fatal("livelock protocol should be pumped")
	}
	if tbl := res.Table(); len(tbl.Rows) == 0 {
		t.Fatal("empty E1 table")
	}
}

func TestE2aHeaderGrowth(t *testing.T) {
	rows, err := RunE2a([]int{1, 4, 16})
	if err != nil {
		t.Fatal(err)
	}
	byProto := make(map[string][]E2aRow)
	for _, r := range rows {
		byProto[r.Protocol] = append(byProto[r.Protocol], r)
	}
	// seqnum: headers grow ~2n (data + ack); precisely 2n on a clean run.
	sq := byProto["seqnum"]
	for _, r := range sq {
		if r.Headers != 2*r.Messages {
			t.Fatalf("seqnum at n=%d used %d headers, want %d", r.Messages, r.Headers, 2*r.Messages)
		}
	}
	// bounded protocols: constant.
	for _, name := range []string{"altbit", "cntlinear"} {
		for _, r := range byProto[name] {
			if r.Headers > 4 {
				t.Fatalf("%s at n=%d used %d headers, want ≤ 4", name, r.Messages, r.Headers)
			}
		}
	}
}

func TestE2bSpaceShapes(t *testing.T) {
	rows, err := RunE2b(8, []int{0, 64, 1024})
	if err != nil {
		t.Fatal(err)
	}
	state := make(map[string]map[int]int)
	for _, r := range rows {
		if state[r.Protocol] == nil {
			state[r.Protocol] = make(map[int]int)
		}
		state[r.Protocol][r.Delayed] = r.StateSize
	}
	// Bounded-header protocols: state grows with D at fixed n.
	for _, name := range []string{"cntlinear", "cntexp"} {
		if state[name][1024] <= state[name][0] {
			t.Fatalf("%s state should grow with D: %v", name, state[name])
		}
	}
	// seqnum: flat (within a word).
	if d := state["seqnum"][1024] - state["seqnum"][0]; d > 2 {
		t.Fatalf("seqnum state should not grow with D: %v", state["seqnum"])
	}
}

func TestE2cAttackOutcomes(t *testing.T) {
	rows, err := RunE2c(3)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]E2cRow)
	for _, r := range rows {
		got[r.Protocol] = r
	}
	if !got["altbit"].Broken || !got["cheat1"].Broken {
		t.Fatalf("altbit and cheat1 should be broken: %+v %+v", got["altbit"], got["cheat1"])
	}
	if got["cntlinear"].Broken || got["cntexp"].Broken {
		t.Fatal("counting protocols should resist")
	}
	if got["seqnum"].Bounded {
		t.Fatal("seqnum should be reported unbounded-alphabet")
	}
}

func TestE3aShapes(t *testing.T) {
	levels := []int{0, 4, 16, 64}
	rows, err := RunE3a(levels)
	if err != nil {
		t.Fatal(err)
	}
	cost := make(map[string]map[int]int)
	for _, r := range rows {
		if cost[r.Protocol] == nil {
			cost[r.Protocol] = make(map[int]int)
		}
		cost[r.Protocol][r.Level] = r.Cost
	}
	// cntlinear: ≥ L at every level (tight linear shape).
	for _, l := range levels {
		if cost["cntlinear"][l] < l {
			t.Fatalf("cntlinear cost at L=%d is %d, want ≥ L", l, cost["cntlinear"][l])
		}
	}
	// seqnum: O(1) at every level.
	for _, l := range levels {
		if cost["seqnum"][l] > 3 {
			t.Fatalf("seqnum cost at L=%d is %d, want O(1)", l, cost["seqnum"][l])
		}
	}
}

func TestE3bAllCheatsBroken(t *testing.T) {
	rows, err := RunE3b(8, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.Broken {
			t.Fatalf("cheat(%d) at L=%d not broken", r.D, r.Level)
		}
		// The adversary needs about L−d+1 replays.
		if r.Replays > r.Level+1 {
			t.Fatalf("cheat(%d): %d replays, expected ≤ L+1", r.D, r.Replays)
		}
	}
}

func TestE4GrowthShapes(t *testing.T) {
	series, err := RunE4(E4Params{Qs: []float64{0.25}, Ns: []int{4, 8, 12, 16}, Seeds: 3})
	if err != nil {
		t.Fatal(err)
	}
	var cnt, sq E4Series
	for _, s := range series {
		switch s.Protocol {
		case "cntlinear":
			cnt = s
		case "seqnum":
			sq = s
		}
	}
	// Bounded-header: per-phase growth ratio comfortably above 1; the
	// asymptotic theory value is 1/(1−q) ≈ 1.33.
	if cnt.PerPhaseRate < 1.1 {
		t.Fatalf("cntlinear per-phase rate %.3f, want exponential growth: %+v", cnt.PerPhaseRate, cnt)
	}
	// Naive protocol: near-linear totals, so fitted ratio close to 1 and
	// clearly below the bounded protocol's.
	if sq.PerMessageRate > 1.15 {
		t.Fatalf("seqnum per-message rate %.3f, want ≈ 1: %+v", sq.PerMessageRate, sq)
	}
	if sq.PerMessageRate >= cnt.PerMessageRate {
		t.Fatalf("seqnum rate %.3f should be below cntlinear rate %.3f",
			sq.PerMessageRate, cnt.PerMessageRate)
	}
	// Totals must be increasing in n.
	for i := 1; i < len(cnt.TotalPackets); i++ {
		if cnt.TotalPackets[i] <= cnt.TotalPackets[i-1] {
			t.Fatalf("cntlinear totals not increasing: %v", cnt.TotalPackets)
		}
	}
}

func TestE5TailDecays(t *testing.T) {
	rows, err := RunE5(E5Params{Ns: []int{4, 16}, Seeds: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].TailFraction > rows[0].TailFraction {
		t.Fatalf("tail fraction should not grow with n: %+v", rows)
	}
	if rows[1].HoeffdingStep >= rows[0].HoeffdingStep {
		t.Fatalf("Hoeffding reference should decay: %+v", rows)
	}
	if rows[1].Threshold <= rows[0].Threshold {
		t.Fatalf("threshold should grow with n: %+v", rows)
	}
}

func TestE6Tradeoff(t *testing.T) {
	rows, err := RunE6(0.25, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]E6Row)
	for _, r := range rows {
		got[r.Protocol] = r
	}
	// seqnum pays headers ~2n…
	if got["seqnum"].Headers < 8 {
		t.Fatalf("seqnum headers = %d", got["seqnum"].Headers)
	}
	// …but beats the counting protocols on packets.
	if got["seqnum"].TotalPackets >= got["cntlinear"].TotalPackets {
		t.Fatalf("seqnum packets %d should beat cntlinear %d",
			got["seqnum"].TotalPackets, got["cntlinear"].TotalPackets)
	}
	if got["altbit"].SafeNonFIFO {
		t.Fatal("altbit must be flagged unsafe")
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID:      "EX",
		Title:   "demo",
		Note:    "a note",
		Columns: []string{"a", "bee"},
	}
	tbl.AddRow("x", 1)
	tbl.AddRow("longer", 2.5)
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== EX: demo ==", "a note", "longer", "2.5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("RunAll is slow")
	}
	var buf bytes.Buffer
	if err := RunAll(&buf, Quick); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, id := range []string{"E0", "E1", "E2a", "E2b", "E2c", "E2d", "E3a", "E3b", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12"} {
		if !strings.Contains(out, "== "+id+":") {
			t.Fatalf("RunAll output missing %s:\n%s", id, out[:min(2000, len(out))])
		}
	}
}

func TestE2dInductionOutcomes(t *testing.T) {
	res, err := RunE2d(3)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]E2dRow)
	for _, r := range res.Rows {
		got[r.Protocol] = r
	}
	if !got["altbit"].Broken || !got["cheat1"].Broken {
		t.Fatalf("altbit/cheat1 should be broken: %+v", res.Rows)
	}
	if got["cntlinear"].Broken {
		t.Fatal("cntlinear should resist")
	}
	if got["seqnum"].Complete {
		t.Fatal("seqnum accumulation should never complete")
	}
	if len(res.AltbitHistory) == 0 {
		t.Fatal("altbit accumulation history missing")
	}
	if res.HistoryTable() == nil || len(res.HistoryTable().Rows) == 0 {
		t.Fatal("history table empty")
	}
}

func TestE7TransportShapes(t *testing.T) {
	rows, err := RunE7()
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]E7Row)
	for _, r := range rows {
		got[r.Protocol] = r
	}
	for _, name := range []string{"swindow-s2-w1", "swindow-s3-w1", "gbn-s2-w1", "altbit"} {
		if !got[name].Broken {
			t.Fatalf("%s should be broken by the prover: %+v", name, got[name])
		}
		if got[name].WitnessOps == 0 {
			t.Fatalf("%s witness length missing", name)
		}
	}
	for _, name := range []string{"swindow-unbounded-w2", "gbn-unbounded-w2", "seqnum", "cntlinear"} {
		if got[name].Broken {
			t.Fatalf("%s should verify safe: %+v", name, got[name])
		}
		if !got[name].Exhausted {
			t.Fatalf("%s space should be exhausted: %+v", name, got[name])
		}
	}
}

func TestE8FIFOContrast(t *testing.T) {
	rows, err := RunE8()
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		p    string
		fifo bool
	}
	got := make(map[key]E8Row)
	for _, r := range rows {
		got[key{r.Protocol, r.FIFO}] = r
	}
	for _, p := range []string{"altbit", "cheat1"} {
		if !got[key{p, false}].Broken {
			t.Fatalf("%s should be broken over non-FIFO", p)
		}
		if got[key{p, true}].Broken {
			t.Fatalf("%s should be safe over FIFO", p)
		}
		if !got[key{p, true}].Exhausted {
			t.Fatalf("%s FIFO space should be exhausted", p)
		}
	}
	for _, p := range []string{"seqnum", "cntlinear"} {
		for _, fifo := range []bool{false, true} {
			if got[key{p, fifo}].Broken {
				t.Fatalf("%s should be safe under fifo=%t", p, fifo)
			}
		}
	}
}

func TestE9Ablations(t *testing.T) {
	rows, err := RunE9()
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]E9Row)
	for _, r := range rows {
		got[r.Variant] = r
	}
	if got["cntlinear"].Broken {
		t.Fatal("baseline should survive")
	}
	for _, v := range []string{"cheat1", "cntnobind", "cntlinear-nogenie"} {
		if !got[v].Broken {
			t.Fatalf("ablation %s should be broken", v)
		}
		if got[v].WitnessOps == 0 {
			t.Fatalf("ablation %s missing witness length", v)
		}
	}
}

func TestE10OneOverKScaling(t *testing.T) {
	rows, err := RunE10(64, []int{2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[int]E10Row)
	var seqnumCost int
	for _, r := range rows {
		if r.Protocol == "seqnum" {
			seqnumCost = r.Cost
			continue
		}
		got[r.K] = r
	}
	for _, k := range []int{2, 4, 8} {
		r := got[k]
		want := r.PerHeader + 1
		if r.Cost < want || r.Cost > want+2 {
			t.Fatalf("k=%d: cost %d, want ≈ %d (L/K+1): %+v", k, r.Cost, want, rows)
		}
	}
	// Strictly decreasing in K — the 1/k factor.
	if !(got[2].Cost > got[4].Cost && got[4].Cost > got[8].Cost) {
		t.Fatalf("cost should fall with K: %+v", rows)
	}
	if seqnumCost > 3 {
		t.Fatalf("seqnum (K→n limit) cost = %d, want O(1)", seqnumCost)
	}
}

func TestE11TrajectoriesGrow(t *testing.T) {
	rows, err := RunE11([]float64{0.25, 0.5}, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rows {
		last := s.MaxInTransit[len(s.MaxInTransit)-1]
		first := s.MaxInTransit[len(s.MaxInTransit)/3]
		if last <= first {
			t.Fatalf("q=%.2f: dominant count should grow: %v", s.Q, s.MaxInTransit)
		}
		if s.Rate < 1.05 {
			t.Fatalf("q=%.2f: fitted phase rate %.3f, want > 1", s.Q, s.Rate)
		}
	}
	// Higher q must grow faster.
	if rows[1].Rate <= rows[0].Rate {
		t.Fatalf("rate at q=0.5 (%.3f) should exceed rate at q=0.25 (%.3f)",
			rows[1].Rate, rows[0].Rate)
	}
}

func TestTableRenderMarkdown(t *testing.T) {
	tbl := &Table{
		ID:      "EX",
		Title:   "demo",
		Note:    "note",
		Columns: []string{"a", "b"},
	}
	tbl.AddRow("x|y", 2)
	var buf bytes.Buffer
	if err := tbl.RenderMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"### EX: demo", "> note", "| a | b |", "| --- | --- |", `x\|y`} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestRunAllWithMarkdown(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	var buf bytes.Buffer
	if err := RunAllWith(&buf, Quick, Markdown); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "### E6:") {
		t.Fatal("markdown output incomplete")
	}
}

func TestE12FormalismsAgree(t *testing.T) {
	rows, err := RunE12()
	if err != nil {
		t.Fatal(err)
	}
	type key struct{ sys, disc string }
	verdicts := make(map[key]map[string]bool)
	for _, r := range rows {
		k := key{r.System, r.Discipline}
		if verdicts[k] == nil {
			verdicts[k] = make(map[string]bool)
		}
		verdicts[k][r.Formalism] = r.Broken
	}
	for k, v := range verdicts {
		if v["endpoints"] != v["automata"] {
			t.Fatalf("%s/%s: formalisms disagree: %v", k.sys, k.disc, v)
		}
	}
	// And the absolute verdicts are the known ones.
	if !verdicts[key{"altbit", "non-FIFO"}]["endpoints"] {
		t.Fatal("altbit must be broken over non-FIFO")
	}
	if verdicts[key{"altbit", "FIFO"}]["endpoints"] {
		t.Fatal("altbit must be safe over FIFO")
	}
	if verdicts[key{"seqnum", "non-FIFO"}]["endpoints"] {
		t.Fatal("seqnum must be safe over non-FIFO")
	}
}

func TestRunSelected(t *testing.T) {
	var buf bytes.Buffer
	if err := RunSelected(&buf, Quick, Text, []string{"E0", "E3b"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "== E0:") || !strings.Contains(out, "== E3b:") {
		t.Fatalf("selected experiments missing:\n%s", out)
	}
	if strings.Contains(out, "== E4:") {
		t.Fatal("unselected experiment ran")
	}
	if err := RunSelected(&buf, Quick, Text, []string{"E99"}); err == nil {
		t.Fatal("unknown experiment id accepted")
	}
}
