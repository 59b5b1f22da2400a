package segstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/wire"
)

// testClock is the deterministic nanosecond clock every store test
// injects: timestamps are 10, 20, 30, … so windows are easy to reason
// about and goldens never depend on the wall clock.
func testClock() func() uint64 {
	var ts uint64
	return func() uint64 { ts += 10; return ts }
}

// Abandon closes the store without sealing, syncing, or truncating —
// the simulated SIGKILL the torture tests use. Bytes already written are
// on disk (or in the page cache, which a process kill does not lose);
// everything else is gone, exactly like a real crash.
func (s *Store) Abandon() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.f.Close()
}

func openTest(t *testing.T, dir string, opts Options) (*Store, *RecoveryReport) {
	t.Helper()
	if opts.Now == nil {
		opts.Now = testClock()
	}
	opts.NoSync = true
	st, rep, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return st, rep
}

// collectBlocks scans the whole store into memory (bodies copied).
func collectBlocks(t *testing.T, st *Store, since, until uint64) []Block {
	t.Helper()
	var out []Block
	if err := st.Scan(since, until, func(b Block) error {
		out = append(out, Block{Kind: b.Kind, TS: b.TS, Body: bytes.Clone(b.Body)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// rotate forces a rotation: seal the active segment (a no-op while it is
// empty), open the next, apply retention — what append does by itself once
// the segment outgrows Options.SegmentBytes.
func rotate(s *Store) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rotateLocked()
}

// maxTS returns the newest block timestamp on disk.
func maxTS(s *Store) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.blocks > 0 {
		return s.maxTS
	}
	if n := len(s.sealed); n > 0 {
		return s.sealed[n-1].maxTS
	}
	return 0
}

// TestOpenRefusesStrayCompactionFile: a seg-….pint.compact file (the temp
// of a compaction this version no longer has) is foreign data. Open must
// name it and leave it alone, not skip or delete it.
func TestOpenRefusesStrayCompactionFile(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTest(t, dir, Options{})
	if err := st.AppendDigests(testDigests(3, 1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	stray := segName(1) + ".compact"
	if err := os.WriteFile(filepath.Join(dir, stray), []byte(segMagic), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(dir, Options{NoSync: true, Now: testClock()})
	if err == nil || !strings.Contains(err.Error(), stray) {
		t.Fatalf("Open with %s present: %v, want an error naming the file", stray, err)
	}
	if _, err := os.Stat(filepath.Join(dir, stray)); err != nil {
		t.Fatalf("Open touched the stray file: %v", err)
	}
}

// TestOpenRefusesVersion1Log: a data directory written before digest
// blocks became column-major holds version-1 wire batches. Its frames and
// checksums are intact, so nothing about it is torn or corrupt — Open
// refuses it by number, at the block, and leaves the file alone.
func TestOpenRefusesVersion1Log(t *testing.T) {
	dir := t.TempDir()
	// {Flow 7, PktID 99, PathLen 12, Digest 0xABCD} as version 1 wrote it.
	v1 := []byte{'P', 'D', 1, 1, 14, 0xC6, 0x01, 24, 0xCD, 0xD7, 0x02}
	seg, err := appendBlock([]byte(segMagic), KindDigests, 10, v1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segName(0))
	if err := os.WriteFile(path, seg, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(dir, Options{NoSync: true, Now: testClock()})
	if err == nil || !strings.Contains(err.Error(), "digest block at offset 4") ||
		!strings.Contains(err.Error(), "unsupported version 1 (have 2)") {
		t.Fatalf("Open of a version-1 log: %v, want a refusal naming the block and the version", err)
	}
	if got, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(got, seg) {
		t.Fatalf("the refused log was modified (%v)", rerr)
	}
}

// TestOpenRefusesKind3: kind 3 is unassigned (it was an eviction record
// nothing read back). A well-framed block of that kind is refused as an
// unknown kind, naming the file and the offset, and the file is left alone.
func TestOpenRefusesKind3(t *testing.T) {
	dir := t.TempDir()
	body, err := wire.AppendMarshal(nil, testDigests(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	seg, err := appendBlock([]byte(segMagic), KindDigests, 10, body)
	if err != nil {
		t.Fatal(err)
	}
	at := len(seg)
	if seg, err = appendBlock(seg, 3, 20, []byte{9, 1, 50, '{', '}'}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segName(0))
	if err := os.WriteFile(path, seg, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(dir, Options{NoSync: true, Now: testClock()})
	want := fmt.Sprintf("%s: unknown block kind 0x03 at offset %d", segName(0), at)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Open of a log holding a kind-3 block: %v, want an error containing %q", err, want)
	}
	if got, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(got, seg) {
		t.Fatalf("the refused log was modified (%v)", rerr)
	}
}

// TestRecoveryCountsWithoutMaterialising: recovery validates and counts a
// digest block in place — no packet slice is built to take its length —
// and a block recovery accepts is one replay decodes, to as many packets.
func TestRecoveryCountsWithoutMaterialising(t *testing.T) {
	st, _ := openTest(t, t.TempDir(), Options{})
	defer st.Close()
	batch := testDigests(256, 3)
	body, err := wire.AppendMarshal(nil, batch)
	if err != nil {
		t.Fatal(err)
	}
	blk := Block{Kind: KindDigests, TS: 10, Body: body}
	ckpt := newCkptChecker()
	if got := testing.AllocsPerRun(100, func() {
		if n, err := st.absorbBlock(blk, ckpt, "seg", 4); err != nil || n != uint64(len(batch)) {
			t.Fatalf("absorbBlock counted %d packets (%v), the block holds %d", n, err, len(batch))
		}
	}); got != 0 {
		t.Fatalf("recovering a digest block: %v allocs, want 0", got)
	}
	if ckpt.seen != 101*uint64(len(batch)) {
		t.Fatalf("the checkpoint checker saw %d packets over 101 blocks of %d", ckpt.seen, len(batch))
	}
	// A body one byte short fails the count exactly as it fails the decode.
	blk.Body = body[:len(body)-1]
	_, cerr := st.absorbBlock(blk, ckpt, "seg", 4)
	_, derr := DecodeDigests(nil, blk.Body, nil)
	if cerr == nil || derr == nil || !strings.Contains(cerr.Error(), derr.Error()) {
		t.Fatalf("truncated body: recovery says %v, decode says %v", cerr, derr)
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, rep := openTest(t, dir, Options{})
	if rep.Segments != 0 || rep.Packets != 0 {
		t.Fatalf("fresh dir recovered %+v", rep)
	}

	b1, b2, b3 := testDigests(3, 1), testDigests(2, 2), testDigests(4, 3)
	for _, b := range [][]core.PacketDigest{b1, b2} {
		if err := st.AppendDigests(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.AppendCheckpoint(Checkpoint{Round: 1, Shard: 0, Shards: 1, Packets: 5, Flows: 2}); err != nil {
		t.Fatal(err)
	}
	if err := rotate(st); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendDigests(b3); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendCheckpoint(Checkpoint{Round: 2, Shard: 0, Shards: 1, Packets: 9, Flows: 3}); err != nil {
		t.Fatal(err)
	}
	want := collectBlocks(t, st, 0, ^uint64(0))
	if len(want) != 5 {
		t.Fatalf("live scan found %d blocks, want 5", len(want))
	}
	stats := st.Stats()
	if stats.Packets != 9 || stats.Segments != 1 || stats.ActiveBlocks != 2 {
		t.Fatalf("live stats %+v", stats)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything must come back, from sealed segments only.
	st2, rep2 := openTest(t, dir, Options{})
	defer st2.Close()
	if rep2.Segments != 2 || rep2.Packets != 9 || rep2.TornBytes != 0 {
		t.Fatalf("reopen recovered %+v", rep2)
	}
	if rep2.Blocks != 5 {
		t.Fatalf("reopen found %d blocks, want 5", rep2.Blocks)
	}
	got := collectBlocks(t, st2, 0, ^uint64(0))
	if len(got) != len(want) {
		t.Fatalf("reopen scan found %d blocks, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Kind != want[i].Kind || got[i].TS != want[i].TS || !bytes.Equal(got[i].Body, want[i].Body) {
			t.Fatalf("block %d changed across reopen: %+v vs %+v", i, got[i], want[i])
		}
	}

	// Time-windowed scans honour block timestamps (10, 20, 30, …).
	windowed := collectBlocks(t, st2, want[1].TS, want[3].TS)
	if len(windowed) != 3 {
		t.Fatalf("window [%d,%d] returned %d blocks, want 3", want[1].TS, want[3].TS, len(windowed))
	}
}

// buildGoldenLog writes the deterministic two-segment log the torn-write
// matrix and corruption tests mutilate: seg A sealed by rotation, seg B
// sealed by Close, with a completed checkpoint round in each.
func buildGoldenLog(t *testing.T, dir string) {
	t.Helper()
	st, _ := openTest(t, dir, Options{})
	if err := st.AppendDigests(testDigests(3, 1)); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendCheckpoint(Checkpoint{Round: 1, Shard: 0, Shards: 1, Packets: 3, Flows: 1}); err != nil {
		t.Fatal(err)
	}
	if err := rotate(st); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendDigests(testDigests(2, 2)); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendDigests(testDigests(4, 3)); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendCheckpoint(Checkpoint{Round: 2, Shard: 0, Shards: 1, Packets: 9, Flows: 3}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// blockEnds maps a golden segment file to the byte offset where each
// data block ends and the digest packets it holds, stopping at the index
// block. It re-derives the layout straight from the bytes so the matrix
// below never trusts the store's own bookkeeping.
func blockEnds(t *testing.T, data []byte) (ends []int, pkts []uint64) {
	t.Helper()
	if string(data[:segHeaderLen]) != segMagic {
		t.Fatal("golden segment lacks magic")
	}
	off := segHeaderLen
	rest := data[segHeaderLen:]
	for len(rest) > 0 {
		blk, after, err := decodeBlock(rest)
		if err != nil {
			t.Fatalf("golden segment block at %d: %v", off, err)
		}
		if blk.Kind == kindIndex {
			break
		}
		var n uint64
		if blk.Kind == KindDigests {
			batch, err := DecodeDigests(nil, blk.Body, nil)
			if err != nil {
				t.Fatal(err)
			}
			n = uint64(len(batch))
		}
		off += len(rest) - len(after)
		rest = after
		ends = append(ends, off)
		pkts = append(pkts, n)
	}
	return ends, pkts
}

// TestRecoveryTornMatrix is the torn-write torture: the last segment of
// a committed golden log is truncated at EVERY byte offset, and each
// prefix must recover — replaying cleanly to the last complete block,
// reporting the exact tail loss, never crashing, never double-counting.
func TestRecoveryTornMatrix(t *testing.T) {
	golden := t.TempDir()
	buildGoldenLog(t, golden)
	names, err := os.ReadDir(golden)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("golden log has %d segments, want 2", len(names))
	}
	segA, err := os.ReadFile(filepath.Join(golden, names[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	segB, err := os.ReadFile(filepath.Join(golden, names[1].Name()))
	if err != nil {
		t.Fatal(err)
	}
	endsA, pktsA := blockEnds(t, segA)
	var packetsA uint64
	for _, n := range pktsA {
		packetsA += n
	}
	if packetsA != 3 {
		t.Fatalf("golden segment A holds %d packets, want 3", packetsA)
	}
	ends, pkts := blockEnds(t, segB)
	_ = endsA

	for cut := 0; cut <= len(segB); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, names[0].Name()), segA, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, names[1].Name()), segB[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, rep, err := Open(dir, Options{NoSync: true, Now: testClock()})
		if err != nil {
			t.Fatalf("cut %d/%d: recovery failed: %v", cut, len(segB), err)
		}

		// Expected survivors: every block of segment B whose bytes fit
		// entirely inside the prefix.
		wantPkts := packetsA
		lastValid := segHeaderLen
		for i, end := range ends {
			if end <= cut {
				wantPkts += pkts[i]
				lastValid = end
			}
		}
		if rep.Packets != wantPkts {
			t.Fatalf("cut %d: recovered %d packets, want %d", cut, rep.Packets, wantPkts)
		}
		switch {
		case cut == len(segB):
			if rep.TornBytes != 0 {
				t.Fatalf("cut %d (intact): reported %d torn bytes", cut, rep.TornBytes)
			}
		case cut > lastValid && cut >= segHeaderLen:
			if rep.TornBytes != int64(cut-lastValid) {
				t.Fatalf("cut %d: reported %d torn bytes, want %d", cut, rep.TornBytes, cut-lastValid)
			}
		case cut < segHeaderLen:
			if rep.TornBytes != int64(cut) && cut > 0 {
				t.Fatalf("cut %d (mid-header): reported %d torn bytes", cut, rep.TornBytes)
			}
		}

		// The repaired log must append and reopen cleanly — and a second
		// recovery must find nothing torn (repair is idempotent).
		if err := st.AppendDigests(testDigests(1, 9)); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("cut %d: close after recovery: %v", cut, err)
		}
		st2, rep2, err := Open(dir, Options{NoSync: true, Now: testClock()})
		if err != nil {
			t.Fatalf("cut %d: second recovery: %v", cut, err)
		}
		if rep2.TornBytes != 0 {
			t.Fatalf("cut %d: second recovery still torn (%d bytes)", cut, rep2.TornBytes)
		}
		if rep2.Packets != wantPkts+1 {
			t.Fatalf("cut %d: second recovery holds %d packets, want %d", cut, rep2.Packets, wantPkts+1)
		}
		st2.Close()
	}
}

// TestRecoveryCorruption separates the two failure classes: a flipped
// bit is corruption and refuses to open (in both sealed and unsealed
// segments), while only truncation is repaired.
func TestRecoveryCorruption(t *testing.T) {
	golden := t.TempDir()
	buildGoldenLog(t, golden)
	names, _ := os.ReadDir(golden)
	for _, seg := range []string{names[0].Name(), names[1].Name()} {
		data, err := os.ReadFile(filepath.Join(golden, seg))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		for _, n := range names {
			src, _ := os.ReadFile(filepath.Join(golden, n.Name()))
			if n.Name() == seg {
				src = bytes.Clone(src)
				src[len(src)/2] ^= 0x01
			}
			if err := os.WriteFile(filepath.Join(dir, n.Name()), src, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		_, _, err = Open(dir, Options{NoSync: true, Now: testClock()})
		if err == nil {
			t.Fatalf("%s: flipped bit recovered silently", seg)
		}
		if errors.Is(err, wire.ErrShortFrame) {
			t.Fatalf("%s: corruption misreported as truncation: %v", seg, err)
		}
		_ = data
	}

	// An unsealed segment that is not the newest means bytes vanished
	// after the fact — corruption, not a torn tail.
	dir := t.TempDir()
	buildGoldenLog(t, dir)
	names, _ = os.ReadDir(dir)
	first := filepath.Join(dir, names[0].Name())
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(first, data[:len(data)-trailerLen], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{NoSync: true, Now: testClock()}); err == nil ||
		!strings.Contains(err.Error(), "not the newest") {
		t.Fatalf("unsealed older segment: %v", err)
	}
}

// TestRecoveryDoubleCountDetected plants a checkpoint that claims fewer
// packets than the log holds — the signature of a double count on replay
// — and demands recovery refuse it.
func TestRecoveryDoubleCountDetected(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTest(t, dir, Options{})
	if err := st.AppendDigests(testDigests(5, 1)); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendCheckpoint(Checkpoint{Round: 1, Shard: 0, Shards: 1, Packets: 3}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{NoSync: true, Now: testClock()}); err == nil ||
		!strings.Contains(err.Error(), "double count or loss") {
		t.Fatalf("undercounting checkpoint recovered: %v", err)
	}
}

// TestRecoveryCrossIncarnationCheckpoint is the orphan-round stitch
// regression: rounds restart at 1 every process lifetime, so an orphan
// round-1 shard-0 record left by a crash mid-round followed by the next
// incarnation's completed round 1 must NOT merge into one bogus
// "complete" round (whose sum would fail the conservation check and
// brick a perfectly legal log).
func TestRecoveryCrossIncarnationCheckpoint(t *testing.T) {
	dir := t.TempDir()
	// Incarnation 1: 5 packets, then a crash between shard records —
	// shard 0 of 2 reported, shard 1 never did.
	st, _ := openTest(t, dir, Options{})
	if err := st.AppendDigests(testDigests(5, 1)); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendCheckpoint(Checkpoint{Round: 1, Shard: 0, Shards: 2, Packets: 3, Flows: 1}); err != nil {
		t.Fatal(err)
	}
	st.Abandon()

	// Incarnation 2: recovers (the orphan record alone is legal), ingests
	// 5 more, and completes ITS round 1 — numbering restarted — covering
	// all 10 packets the log now holds.
	st2, rep := openTest(t, dir, Options{})
	if rep.Packets != 5 {
		t.Fatalf("first recovery found %d packets, want 5", rep.Packets)
	}
	if err := st2.AppendDigests(testDigests(5, 2)); err != nil {
		t.Fatal(err)
	}
	if err := st2.AppendCheckpoint(Checkpoint{Round: 1, Shard: 0, Shards: 2, Packets: 6, Flows: 1}); err != nil {
		t.Fatal(err)
	}
	if err := st2.AppendCheckpoint(Checkpoint{Round: 1, Shard: 1, Shards: 2, Packets: 4, Flows: 1}); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	// Incarnation 3: the shard-0 repeat marks the incarnation boundary;
	// stitching the orphan onto the completed round would claim 3+6+4=13
	// packets... or, counting records only, complete at 3+6=9 < 10 and
	// refuse. Either way, only the fix opens this log.
	st3, rep3 := openTest(t, dir, Options{})
	defer st3.Close()
	if rep3.Packets != 10 {
		t.Fatalf("second recovery found %d packets, want 10", rep3.Packets)
	}
}

// TestRetentionConservation rotates under MaxSegments=1 and checks that
// deleted packets stay accounted: surviving digests plus the cumulative
// Retain counter always equal everything ever appended, live and across
// a reopen.
func TestRetentionConservation(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTest(t, dir, Options{MaxSegments: 1})
	var appended uint64
	for i := 0; i < 5; i++ {
		batch := testDigests(3+i, uint64(i))
		if err := st.AppendDigests(batch); err != nil {
			t.Fatal(err)
		}
		appended += uint64(len(batch))
		if err := rotate(st); err != nil {
			t.Fatal(err)
		}
	}
	stats := st.Stats()
	if stats.DeletedSegments == 0 {
		t.Fatal("retention never deleted a segment")
	}
	var surviving uint64
	count := func(b Block) error {
		if b.Kind == KindDigests {
			batch, err := DecodeDigests(nil, b.Body, nil)
			if err != nil {
				return err
			}
			surviving += uint64(len(batch))
		}
		return nil
	}
	if err := st.Scan(0, ^uint64(0), count); err != nil {
		t.Fatal(err)
	}
	if surviving+stats.DeletedPackets != appended {
		t.Fatalf("conservation broken: %d surviving + %d deleted != %d appended",
			surviving, stats.DeletedPackets, appended)
	}
	if st.HorizonTS() == 0 {
		t.Fatal("retention left no horizon")
	}
	// A full-coverage checkpoint round is still valid: the checker knows
	// about the deleted packets through the Retain marker.
	if err := st.AppendCheckpoint(Checkpoint{Round: 1, Shard: 0, Shards: 1, Packets: appended}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rep := openTest(t, dir, Options{MaxSegments: 1})
	defer st2.Close()
	if rep.DeletedPackets != stats.DeletedPackets || rep.DeletedSegments != stats.DeletedSegments {
		t.Fatalf("reopen lost retention counters: %+v vs %+v", rep, stats)
	}
	if rep.HorizonTS == 0 {
		t.Fatal("reopen lost the horizon")
	}
	surviving = 0
	if err := st2.Scan(0, ^uint64(0), count); err != nil {
		t.Fatal(err)
	}
	if surviving+rep.DeletedPackets != appended {
		t.Fatalf("conservation broken after reopen: %d + %d != %d", surviving, rep.DeletedPackets, appended)
	}
}

// TestRecoveryTrailerCoincidence plants a torn, unsealed tail whose last
// four arbitrary bytes spell the trailer magic: the bogus footer must not
// be trusted — the newest segment falls back to the torn-tail scan and
// recovery truncates, rather than refusing an otherwise-legal log.
func TestRecoveryTrailerCoincidence(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTest(t, dir, Options{})
	if err := st.AppendDigests(testDigests(3, 1)); err != nil {
		t.Fatal(err)
	}
	if err := rotate(st); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendDigests(testDigests(2, 2)); err != nil {
		t.Fatal(err)
	}
	st.Abandon()
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := filepath.Join(dir, names[len(names)-1].Name())
	// A torn frame: a plausible length prefix (100-byte payload, mostly
	// missing) whose crc bytes push the would-be footer offset far outside
	// the file, and whose last four bytes happen to spell the magic.
	garbage := append([]byte{100, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}, trailerMagic...)
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(garbage); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st2, rep := openTest(t, dir, Options{})
	defer st2.Close()
	if rep.Packets != 5 {
		t.Fatalf("recovered %d packets, want 5", rep.Packets)
	}
	if rep.TornBytes != int64(len(garbage)) {
		t.Fatalf("reported %d torn bytes, want %d", rep.TornBytes, len(garbage))
	}
}

// TestScanUnlocked pins the backpressure fix: Scan snapshots the segment
// set under the store lock but runs the walk — fn included — without it,
// so a long replay (the /snapshot?since= path) cannot stall appends. The
// callback exercising locking methods would self-deadlock otherwise.
func TestScanUnlocked(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTest(t, dir, Options{})
	defer st.Close()
	if err := st.AppendDigests(testDigests(3, 1)); err != nil {
		t.Fatal(err)
	}
	if err := rotate(st); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendDigests(testDigests(2, 2)); err != nil {
		t.Fatal(err)
	}
	blocks := 0
	err := st.Scan(0, ^uint64(0), func(b Block) error {
		blocks++
		// Lock-taking store methods from inside the callback: each of
		// these self-deadlocked when Scan held s.mu across the walk.
		if st.Stats().Packets < 5 || maxTS(st) == 0 {
			t.Fatal("store accounting wrong under scan")
		}
		// Appending mid-scan is legal (the walk reads a snapshot) and must
		// not deadlock; the new blocks are invisible to this scan.
		return st.AppendDigests(testDigests(1, 9))
	})
	if err != nil {
		t.Fatal(err)
	}
	if blocks != 2 {
		t.Fatalf("scan visited %d blocks, want 2", blocks)
	}
	if st.Stats().Packets != 5+2 {
		t.Fatalf("mid-scan appends lost: %d packets", st.Stats().Packets)
	}
}

// TestAbandonThenRecover is the in-process SIGKILL: Abandon never seals,
// and recovery still serves everything that hit the file.
func TestAbandonThenRecover(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTest(t, dir, Options{})
	if err := st.AppendDigests(testDigests(6, 1)); err != nil {
		t.Fatal(err)
	}
	st.Abandon()
	st2, rep := openTest(t, dir, Options{})
	defer st2.Close()
	if rep.Packets != 6 || rep.TornBytes != 0 {
		t.Fatalf("abandoned store recovered as %+v", rep)
	}
}
