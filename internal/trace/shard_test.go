package trace

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/ioa"
)

// soakLog builds a small synthetic session log whose shape is a pure
// function of id, so shard tests can compare against an independent encode.
func soakLog(id int) *Log {
	rng := rand.New(rand.NewSource(int64(id) + 1))
	l := NewLog(map[string]string{MetaProtocol: "seqnum", MetaKind: "soak", MetaSource: "netlink"})
	n := 2 + rng.Intn(6)
	for i := 0; i < n; i++ {
		m := ioa.Message{ID: i, Payload: "m" + strings.Repeat("x", rng.Intn(4))}
		p := ioa.Packet{Header: "h", Payload: m.Payload}
		l.Emit(Event{Kind: KindSubmit, Msg: m})
		l.Emit(Event{Kind: KindTransmit})
		l.Emit(Event{Kind: KindSendPkt, Dir: ioa.TtoR, Pkt: p})
		if rng.Float64() < 0.3 {
			l.Emit(Event{Kind: KindDecision, Dir: ioa.TtoR, Decision: Drop})
			continue
		}
		l.Emit(Event{Kind: KindDecision, Dir: ioa.TtoR, Decision: DeliverNow})
		l.Emit(Event{Kind: KindRecvPkt, Dir: ioa.TtoR, Pkt: p})
		l.Emit(Event{Kind: KindRecvMsg, Msg: m})
	}
	if id%5 == 0 {
		l.Emit(Event{Kind: KindVerdict, Property: "DL1", Index: 4, Detail: "stale delivery accepted"})
	}
	return l
}

// TestShardStoreInterleavedWritesByteIdentical is the sharded-writer
// property: many sessions written concurrently, in arbitrary interleavings,
// extract from their shards byte-identical to a standalone single-session
// recording of the same log.
func TestShardStoreInterleavedWritesByteIdentical(t *testing.T) {
	dir := t.TempDir()
	s, err := NewShardStore(dir, 3)
	if err != nil {
		t.Fatalf("NewShardStore: %v", err)
	}
	const sessions = 40
	logs := make(map[string]*Log, sessions)
	names := make([]string, 0, sessions)
	for i := 0; i < sessions; i++ {
		name := fmt.Sprintf("s%03d", i)
		logs[name] = soakLog(i)
		names = append(names, name)
	}
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for _, name := range names {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			if _, err := s.Put(name, logs[name]); err != nil {
				errs <- err
			}
		}(name)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("Put: %v", err)
	}
	if s.Len() != sessions {
		t.Fatalf("store holds %d sessions, want %d", s.Len(), sessions)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	m, err := ReadManifestFile(dir)
	if err != nil {
		t.Fatalf("ReadManifestFile: %v", err)
	}
	if len(m.Entries) != sessions {
		t.Fatalf("manifest has %d entries, want %d", len(m.Entries), sessions)
	}
	for _, name := range names {
		got, err := ReadShardLog(dir, m, name)
		if err != nil {
			t.Fatalf("ReadShardLog(%s): %v", name, err)
		}
		var want, have bytes.Buffer
		if err := logs[name].Encode(&want); err != nil {
			t.Fatal(err)
		}
		if err := got.Encode(&have); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), have.Bytes()) {
			t.Fatalf("session %s: shard extraction differs from standalone encode", name)
		}
		e, ok := m.Lookup(name)
		if !ok {
			t.Fatalf("session %s missing from manifest", name)
		}
		st := Collect(logs[name])
		if e.Events != st.Events || e.Verdict != st.Verdict || e.Deliveries != st.Deliveries {
			t.Fatalf("session %s manifest entry %+v disagrees with log stats %+v", name, e, st)
		}
	}
}

// TestShardManifestOrderIndependent pins that a manifest depends only on the
// set of recorded sessions up to byte offsets: entries come out sorted by
// session name with identical shard assignment and stats regardless of the
// write interleaving (only offsets reflect how each shard was packed).
func TestShardManifestOrderIndependent(t *testing.T) {
	build := func(order []int) *Manifest {
		t.Helper()
		dir := t.TempDir()
		s, err := NewShardStore(dir, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range order {
			if _, err := s.Put(fmt.Sprintf("s%d", i), soakLog(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		m, err := ReadManifestFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a := build([]int{0, 1, 2, 3, 4, 5})
	b := build([]int{5, 3, 1, 4, 2, 0})
	if !reflect.DeepEqual(a.Shards, b.Shards) {
		t.Fatalf("shard lists differ: %v vs %v", a.Shards, b.Shards)
	}
	if len(a.Entries) != len(b.Entries) {
		t.Fatalf("entry counts differ: %d vs %d", len(a.Entries), len(b.Entries))
	}
	for i := range a.Entries {
		ea, eb := a.Entries[i], b.Entries[i]
		ea.Offset, eb.Offset = 0, 0
		if !reflect.DeepEqual(ea, eb) {
			t.Fatalf("entry %d differs beyond offset:\n%+v\n%+v", i, ea, eb)
		}
		if i > 0 && a.Entries[i-1].Session >= a.Entries[i].Session {
			t.Fatalf("entries not sorted: %q before %q", a.Entries[i-1].Session, a.Entries[i].Session)
		}
	}
}

// TestShardManifestRoundTrip pins the NFMAN codec: encode → decode is the
// identity, and violating sessions are findable without opening shards.
func TestShardManifestRoundTrip(t *testing.T) {
	m := &Manifest{
		Shards: []string{"shard-000.nfts", "shard-001.nfts"},
		Entries: []ManifestEntry{
			{Session: "s000", Shard: 1, Offset: 0, Length: 321, Protocol: "altbit",
				Verdict: "violation DL1: stale delivery accepted", Events: 50, Ops: 20, Messages: 12, Deliveries: 11},
			{Session: "s001", Shard: 0, Offset: 98, Length: 200, Protocol: "seqnum",
				Events: 31, Ops: 14, Messages: 8, Deliveries: 8},
		},
	}
	var buf bytes.Buffer
	if err := EncodeManifest(&buf, m); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeManifest(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip changed manifest:\nwant %+v\ngot  %+v", m, got)
	}
	v := got.Violations()
	if len(v) != 1 || v[0].Session != "s000" {
		t.Fatalf("Violations() = %+v, want the s000 entry", v)
	}
}

// TestShardManifestDecodeRejects pins the malformed-manifest errors.
func TestShardManifestDecodeRejects(t *testing.T) {
	var good bytes.Buffer
	if err := EncodeManifest(&good, &Manifest{Shards: []string{"a"}}); err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"bad magic":      append([]byte("NOTNF"), good.Bytes()[5:]...),
		"bad version":    append(append([]byte{}, good.Bytes()[:5]...), append([]byte{0x7f}, good.Bytes()[6:]...)...),
		"trailing bytes": append(append([]byte{}, good.Bytes()...), 0xff),
		"truncated":      good.Bytes()[:4],
	}
	for name, b := range cases {
		if _, err := DecodeManifest(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: decode accepted malformed manifest", name)
		}
	}
}

// TestShardStoreDuplicatePutRefused pins the zero-lost-recordings contract:
// a duplicate session key is an error, not a silent overwrite, and a closed
// store refuses writes.
func TestShardStoreDuplicatePutRefused(t *testing.T) {
	s, err := NewShardStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("dup", soakLog(1)); err != nil {
		t.Fatalf("first Put: %v", err)
	}
	if _, err := s.Put("dup", soakLog(2)); err == nil {
		t.Fatal("duplicate Put accepted")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := s.Put("late", soakLog(3)); err == nil {
		t.Fatal("Put after Close accepted")
	}
}

// TestNewShardStoreRefusesUsedDirectory: a directory that already holds a
// manifest or shard files is refused with an error naming it, and nothing in
// it is truncated or created.
func TestNewShardStoreRefusesUsedDirectory(t *testing.T) {
	closed := t.TempDir()
	s, err := NewShardStore(closed, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("s0", soakLog(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifestFile(closed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReadShardLog(closed, m, "s0")
	if err != nil {
		t.Fatal(err)
	}

	// A store killed before Close leaves shard files and no manifest.
	crashed := t.TempDir()
	if err := os.WriteFile(filepath.Join(crashed, "shard-003.nfts"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		dir    string
		shards int
	}{{closed, 2}, {closed, 8}, {crashed, 2}, {crashed, 8}} {
		before, _ := os.ReadDir(tc.dir)
		if _, err := NewShardStore(tc.dir, tc.shards); err == nil || !strings.Contains(err.Error(), tc.dir) {
			t.Fatalf("NewShardStore(%s, %d) on a used directory: err %v, want a refusal naming it", tc.dir, tc.shards, err)
		}
		if after, _ := os.ReadDir(tc.dir); len(after) != len(before) {
			t.Fatalf("refused NewShardStore changed %s: %d entries, had %d", tc.dir, len(after), len(before))
		}
	}
	if data, _ := os.ReadFile(filepath.Join(crashed, "shard-003.nfts")); string(data) != "torn" {
		t.Fatalf("refused NewShardStore truncated a shard: %q", data)
	}
	got, err := ReadShardLog(closed, m, "s0")
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("first store's session after the refusal: %v (err %v), want %v", got, err, want)
	}
}
