package segstore

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"strings"
	"testing"

	"repro/internal/pipeline"
)

func TestWriterPersistsInOrder(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTest(t, dir, Options{})
	var p pipeline.Persister = st

	b1, b2 := testDigests(4, 1), testDigests(5, 2)
	p.PersistIngest(b1)
	p.PersistIngest(b2)
	p.PersistCheckpoint(pipeline.CheckpointStats{Round: 1, Shard: 0, Shards: 1, Packets: 9, Flows: 2})

	got := collectBlocks(t, st, 0, ^uint64(0))
	wantKinds := []uint8{KindDigests, KindDigests, KindCheckpoint}
	if len(got) != len(wantKinds) {
		t.Fatalf("store holds %d blocks, want %d", len(got), len(wantKinds))
	}
	for i, k := range wantKinds {
		if got[i].Kind != k {
			t.Fatalf("block %d has kind %d, want %d (call order violated)", i, got[i].Kind, k)
		}
	}
	first, err := DecodeDigests(nil, got[0].Body, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(b1) || first[0] != b1[0] {
		t.Fatalf("first batch changed: %d digests", len(first))
	}
	cp, err := DecodeCheckpoint(got[2].Body)
	if err != nil {
		t.Fatal(err)
	}
	if cp != (Checkpoint{Round: 1, Shard: 0, Shards: 1, Packets: 9, Flows: 2}) {
		t.Fatalf("checkpoint record %+v", cp)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPersistIngestScannable: the block a PersistIngest call writes is in
// the file when the call returns — a Scan right after it reads the batch
// back, with no Sync and nothing else in between.
func TestPersistIngestScannable(t *testing.T) {
	st, _ := openTest(t, t.TempDir(), Options{})
	defer st.Close()
	for i := range 5 {
		batch := testDigests(3+i, uint64(i))
		st.PersistIngest(batch)
		got := collectBlocks(t, st, 0, ^uint64(0))
		if len(got) != i+1 {
			t.Fatalf("after persist %d a scan reads %d blocks, want %d", i, len(got), i+1)
		}
		last, err := DecodeDigests(nil, got[i].Body, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(last) != len(batch) || last[len(last)-1] != batch[len(batch)-1] {
			t.Fatalf("persist %d: the scan's last block holds %d digests, want the batch's %d", i, len(last), len(batch))
		}
	}
}

// TestWriterErrorSticksAndDrains fails one append with an I/O error and
// then gives the store a working file back: nothing more may reach it —
// no digests, no checkpoint, no seal — and Err, Sync and Close all report
// the first failure. Recovery then finds exactly the blocks before it.
func TestWriterErrorSticksAndDrains(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTest(t, dir, Options{})
	st.PersistIngest(testDigests(4, 1))
	name := st.f.Name()
	st.f.Close() // the next write fails
	st.PersistIngest(testDigests(5, 2))
	first := st.Err()
	if first == nil {
		t.Fatal("a failed append left Err nil")
	}
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	st.f = f // the disk is back; the store must not use it
	before, _ := os.Stat(name)
	st.PersistIngest(testDigests(6, 3))
	st.PersistCheckpoint(pipeline.CheckpointStats{Round: 1, Shards: 1, Packets: 4})
	if err := st.AppendDigests(testDigests(7, 4)); err != first {
		t.Fatalf("append after the failure: %v, want the first error %v", err, first)
	}
	for what, err := range map[string]error{"Err": st.Err(), "Sync": st.Sync(), "Close": st.Close()} {
		if err != first {
			t.Fatalf("%s after the failure: %v, want the first error %v", what, err, first)
		}
	}
	if after, _ := os.Stat(name); after.Size() != before.Size() {
		t.Fatalf("the store wrote %d bytes after a failed append", after.Size()-before.Size())
	}
	if _, rep, err := Open(dir, Options{NoSync: true, Now: testClock()}); err != nil {
		t.Fatal(err)
	} else if rep.Blocks != 1 || rep.Packets != 4 {
		t.Fatalf("recovered %d blocks, %d packets; want the 1 block, 4 packets before the failure", rep.Blocks, rep.Packets)
	}
}

// TestNoWorkers holds segstore to what its persister's contract promises:
// every append runs on its caller's goroutine, so the package's non-test
// code has no go statement, no channel and no WaitGroup.
func TestNoWorkers(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range pkgs["segstore"].Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				t.Errorf("go statement at %d", n.Pos())
			case *ast.ChanType:
				t.Errorf("channel type at %d", n.Pos())
			case *ast.SelectorExpr:
				if n.Sel.Name == "WaitGroup" {
					t.Errorf("sync.WaitGroup at %d", n.Pos())
				}
			}
			return true
		})
	}
}
