package segstore

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
)

func TestWriterPersistsInOrder(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTest(t, dir, Options{})
	w := NewWriter(st, WriterOptions{
		EncodeEvict: func(ev pipeline.Eviction, rec *core.Recording) []byte {
			return []byte(fmt.Sprintf(`{"flow":%d}`, ev.Flow))
		},
	})

	b1, b2 := testDigests(4, 1), testDigests(5, 2)
	w.PersistIngest(b1)
	w.PersistIngest(b2)
	w.PersistEvict(0, pipeline.Eviction{Flow: 7, Reason: pipeline.EvictCapacity, LastSeen: 3}, nil)
	w.PersistCheckpoint(pipeline.CheckpointStats{Round: 1, Shard: 0, Shards: 1, Packets: 9, Flows: 2})
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}

	got := collectBlocks(t, st, 0, ^uint64(0))
	wantKinds := []uint8{KindDigests, KindDigests, KindEvict, KindCheckpoint}
	if len(got) != len(wantKinds) {
		t.Fatalf("store holds %d blocks, want %d", len(got), len(wantKinds))
	}
	for i, k := range wantKinds {
		if got[i].Kind != k {
			t.Fatalf("block %d has kind %d, want %d (FIFO violated)", i, got[i].Kind, k)
		}
	}
	ev, err := DecodeEvict(got[2].Body)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Flow != 7 || string(ev.Answers) != `{"flow":7}` {
		t.Fatalf("evict record %+v (answers %q)", ev, ev.Answers)
	}
	first, err := DecodeDigests(nil, got[0].Body, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(b1) || first[0] != b1[0] {
		t.Fatalf("first batch changed: %d digests", len(first))
	}

	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWriterErrorSticksAndDrains forces an append failure and checks the
// writer reports it while never blocking producers.
func TestWriterErrorSticksAndDrains(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTest(t, dir, Options{})
	w := NewWriter(st, WriterOptions{})
	st.Close() // every later append fails with "append after Close"

	for i := 0; i < 4*writerQueueDepth; i++ { // far past the queue depth: must not deadlock
		w.PersistIngest(testDigests(1, uint64(i)))
	}
	if err := w.Flush(); err == nil || !strings.Contains(err.Error(), "after Close") {
		t.Fatalf("flush after store close: %v", err)
	}
	if w.Err() == nil {
		t.Fatal("writer error not sticky")
	}
	if err := w.Close(); err == nil {
		t.Fatal("close swallowed the error")
	}
}

func TestWriterAbandonUnblocks(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTest(t, dir, Options{})
	w := NewWriter(st, WriterOptions{})
	w.PersistIngest(testDigests(2, 1))
	w.Abandon()
	// Post-abandon persists are dropped, not deadlocked.
	w.PersistIngest(testDigests(2, 2))
	if err := w.Flush(); err != nil {
		t.Fatalf("flush after abandon: %v", err)
	}
	// The store was abandoned with the writer; recovery replays whatever
	// reached the file before the abandon.
	if _, rep, err := Open(dir, Options{NoSync: true, Now: testClock()}); err != nil {
		t.Fatal(err)
	} else if rep.Packets > 2 {
		t.Fatalf("abandon leaked %d packets", rep.Packets)
	}
}
