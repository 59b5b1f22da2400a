package segstore

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/wire"
)

// TestScanWindowProperty: on random logs — several sealed segments, with
// and without retention having deleted the oldest, and a live unsealed
// tail — the streaming Scan yields, for every window drawn at block
// timestamps and one off either side of them, exactly the blocks a
// brute-force filter of every byte on disk yields. The clock repeats
// timestamps now and then, so a window's edge can fall inside a run of
// equal ones.
func TestScanWindowProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1601))
	for round := 0; round < 6; round++ {
		dir := t.TempDir()
		var ts uint64
		st, _ := openTest(t, dir, Options{
			SegmentBytes: 4096,
			MaxSegments:  []int{0, 2}[round%2],
			Now: func() uint64 {
				if rng.Intn(5) > 0 {
					ts += uint64(1 + rng.Intn(40))
				}
				return ts
			},
		})
		var pkts uint64
		for op, ops := 0, 60+rng.Intn(80); op < ops || st.Stats().ActiveBlocks == 0; op++ { // end on a live tail
			var err error
			switch rng.Intn(8) {
			case 0:
				err = st.AppendCheckpoint(Checkpoint{Round: uint64(op), Shard: 0, Shards: 1, Packets: pkts, Flows: 3})
			default:
				batch := randDigests(rng, 1+rng.Intn(60))
				pkts += uint64(len(batch))
				err = st.AppendDigests(batch)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		stats := st.Stats()
		if stats.Segments < 2 || stats.ActiveBlocks == 0 || (round%2 == 1) != (stats.DeletedSegments > 0) {
			t.Fatalf("round %d: log shape %+v lacks sealed segments, a live tail or the retention it was built for", round, stats)
		}
		// The files as they are on disk now, live tail included: appends go
		// straight to the file.
		_, images := segmentFiles(t, dir)
		edges := []uint64{0, ^uint64(0)}
		for _, b := range bruteBlocks(t, images, 0, ^uint64(0)) {
			edges = append(edges, b.TS-1, b.TS, b.TS+1)
		}
		for _, since := range edges {
			untils := []uint64{since, ^uint64(0)}
			for i := 0; i < 4; i++ {
				untils = append(untils, edges[rng.Intn(len(edges))])
			}
			for _, until := range untils {
				if until < since {
					continue
				}
				got, want := collectBlocks(t, st, since, until), bruteBlocks(t, images, since, until)
				if !sameBlocks(got, want) {
					t.Fatalf("round %d window [%d, %d]: Scan yields %d blocks, the brute-force filter %d",
						round, since, until, len(got), len(want))
				}
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScanWhileAppenderRotates scans windows while another goroutine
// appends through rotations and retention unlinks segments under the
// scans. A scan reads the log as of the instant it snapshots the segment
// set, which the test can only bracket, so it checks what must hold for
// any instant in the bracket: every block is one that was appended, with
// its bytes, inside the window; the blocks are a gapless run of the append
// sequence; and nothing that was on disk before the scan began and is
// still there after it ended is missing.
func TestScanWhileAppenderRotates(t *testing.T) {
	// Every block takes one tick of a clock that counts in tens, the
	// store's own Retain records included: block n of the append sequence
	// is the one at timestamp 10n.
	var (
		mu     sync.Mutex
		ticks  uint64
		bodies = map[uint64][]byte{} // timestamp → body, digest blocks only
	)
	st, _ := openTest(t, t.TempDir(), Options{SegmentBytes: 4096, MaxSegments: 2, Now: func() uint64 {
		mu.Lock()
		defer mu.Unlock()
		ticks++
		return 10 * ticks
	}})
	defer st.Close()

	stop, started := make(chan struct{}), make(chan struct{})
	var appender sync.WaitGroup
	defer func() { // before the store closes, pass or fail
		close(stop)
		appender.Wait()
	}()
	appender.Add(1)
	go func() {
		defer appender.Done()
		var once sync.Once
		signal := func() { once.Do(func() { close(started) }) }
		defer signal() // also on an early error, so the scanner never hangs
		rng := rand.New(rand.NewSource(1602))
		for n := 0; ; n++ {
			if n == 1 {
				signal()
			}
			select {
			case <-stop:
				return
			default:
			}
			batch := randDigests(rng, 1+rng.Intn(40))
			body, err := wire.AppendMarshal(nil, batch)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			bodies[10*(ticks+1)] = body // the next tick: this goroutine is the only appender
			mu.Unlock()
			if err := st.AppendDigests(batch); err != nil {
				t.Error(err)
				return
			}
			// Leave the store lock contended, not monopolised: a scan that
			// only gets in once per starvation timeout finds its window
			// already retired.
			runtime.Gosched()
		}
	}()

	<-started
	rng := rand.New(rand.NewSource(1603))
	blocksSeen := 0
	for scan := 0; (scan < 200 || st.Stats().DeletedSegments < 3) && !t.Failed(); scan++ {
		horizon0, max0 := st.HorizonTS(), maxTS(st)
		since := uint64(0)
		if back := uint64(rng.Intn(600)); back < max0 {
			since = max0 - back
		}
		until := since + uint64(rng.Intn(600))
		if rng.Intn(3) == 0 {
			until = ^uint64(0)
		}
		got := collectBlocks(t, st, since, until)
		blocksSeen += len(got)
		horizon1 := st.HorizonTS()

		have := map[uint64]bool{}
		for i, b := range got {
			mu.Lock()
			appended := b.TS%10 == 0 && b.TS <= 10*ticks
			body, isDigest := bodies[b.TS]
			mu.Unlock()
			if !appended || b.TS < since || b.TS > until || b.TS <= horizon0 {
				t.Fatalf("scan %d [%d, %d]: block at ts %d is outside the window or was never appended", scan, since, until, b.TS)
			}
			if i > 0 && b.TS != got[i-1].TS+10 {
				t.Fatalf("scan %d [%d, %d]: ts %d follows ts %d — the run has a gap", scan, since, until, b.TS, got[i-1].TS)
			}
			if (b.Kind == KindDigests) != isDigest || isDigest && string(body) != string(b.Body) {
				t.Fatalf("scan %d: block at ts %d does not hold what was appended at that tick", scan, b.TS)
			}
			have[b.TS] = true
		}
		for ts := (max(since, horizon1+1) + 9) / 10 * 10; ts <= min(until, max0); ts += 10 {
			if !have[ts] {
				t.Fatalf("scan %d [%d, %d]: the block at ts %d was on disk before and after the scan and is missing from it",
					scan, since, until, ts)
			}
		}
	}
	if blocksSeen == 0 {
		t.Fatal("no scan saw a block")
	}
}

// TestScanAllocationIndependentOfSegmentSize: the same window over the
// same blocks costs the same to read whether segments are 64 KiB or 2 MiB
// — one frame buffer, and in the segment the window opens inside, that
// segment's index footer read through it — where reading segments whole
// cost their size several times over.
func TestScanAllocationIndependentOfSegmentSize(t *testing.T) {
	const blocks, window = 4000, 20 // ≈ 3.5 MB of 64-packet digest blocks
	batch := testDigests(64, 3)
	measure := func(segBytes int64) (allocs float64, bytesPerScan, footer uint64) {
		dir := t.TempDir()
		st, _ := openTest(t, dir, Options{SegmentBytes: segBytes})
		defer st.Close()
		for i := 0; i < blocks; i++ {
			if err := st.AppendDigests(batch); err != nil {
				t.Fatal(err)
			}
		}
		// testClock: block i is at 10*(i+1). The window starts inside the
		// newest sealed segment, so the read has a seek in it.
		last := st.sealed[len(st.sealed)-1]
		since, until := last.maxTS-10*window, last.maxTS
		if since <= last.minTS {
			t.Fatalf("window of %d blocks does not fit the newest sealed segment", window)
		}
		scan := func() {
			n := 0
			if err := st.Scan(since, until, func(Block) error { n++; return nil }); err != nil {
				t.Fatal(err)
			}
			if n != window+1 {
				t.Fatalf("window holds %d blocks, want %d", n, window+1)
			}
		}
		const runs = 20
		allocs = testing.AllocsPerRun(runs, scan)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			scan()
		}
		runtime.ReadMemStats(&after)
		img, err := os.ReadFile(filepath.Join(dir, last.name))
		if err != nil {
			t.Fatal(err)
		}
		footer = uint64(len(img)) - trailerLen - binary.LittleEndian.Uint64(img[len(img)-trailerLen:])
		return allocs, (after.TotalAlloc - before.TotalAlloc) / runs, footer
	}
	smallAllocs, smallBytes, _ := measure(64 << 10)
	largeAllocs, largeBytes, largeFooter := measure(2 << 20)
	t.Logf("window scan: %v allocs / %d B at 64 KiB segments, %v allocs / %d B at 2 MiB (index footer %d B)",
		smallAllocs, smallBytes, largeAllocs, largeBytes, largeFooter)
	if largeAllocs > smallAllocs {
		t.Errorf("Scan allocates %v times at 2 MiB segments, %v at 64 KiB", largeAllocs, smallAllocs)
	}
	if largeBytes > smallBytes+largeFooter+1024 {
		t.Errorf("Scan allocates %d B at 2 MiB segments, %d B at 64 KiB: more than the larger index footer (%d B) apart",
			largeBytes, smallBytes, largeFooter)
	}
	if largeBytes > (2<<20)/16 {
		t.Errorf("Scan allocates %d B per window at 2 MiB segments: within sight of reading the segment", largeBytes)
	}
}
