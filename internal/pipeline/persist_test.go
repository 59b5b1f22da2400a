package pipeline

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/hash"
)

// recordingPersister captures every Persister callback in arrival order,
// copying what the contract says is only valid during the call.
type recordingPersister struct {
	mu      sync.Mutex
	batches [][]core.PacketDigest
	ckpts   []CheckpointStats
}

func (r *recordingPersister) PersistIngest(batch []core.PacketDigest) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.batches = append(r.batches, append([]core.PacketDigest(nil), batch...))
}

func (r *recordingPersister) PersistCheckpoint(cp CheckpointStats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ckpts = append(r.ckpts, cp)
}

// TestPersisterSeesPerShardOrder: PersistIngest observes single-shard
// chunks whose per-shard concatenation is exactly the per-shard
// subsequence of the arrival stream — the relaxed write-ahead-log
// property replay depends on (persist.go). Nothing is lost, nothing is
// duplicated, and within a shard nothing is reordered.
func TestPersisterSeesPerShardOrder(t *testing.T) {
	eng, _, _, _ := testPlan(t, 101)
	pkts := encodeWorkload(eng, 7, 12, 50, 6)
	for _, shards := range []int{1, 4} {
		p := &recordingPersister{}
		sink, err := NewSink(eng, Config{Shards: shards, BatchSize: 32, Base: hash.Seed(0xD1CE)})
		if err != nil {
			t.Fatal(err)
		}
		sink.SetPersister(p)
		const batchLen = 37 // deliberately unaligned with BatchSize
		for off := 0; off < len(pkts); off += batchLen {
			end := off + batchLen
			if end > len(pkts) {
				end = len(pkts)
			}
			sink.Ingest(pkts[off:end])
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		logged := make([][]core.PacketDigest, shards)
		var total int
		for bi, b := range p.batches {
			if len(b) == 0 {
				t.Fatalf("shards=%d: chunk %d is empty", shards, bi)
			}
			sh := hash.ShardOf(uint64(b[0].Flow), uint64(shards))
			for i := range b {
				if got := hash.ShardOf(uint64(b[i].Flow), uint64(shards)); got != sh {
					t.Fatalf("shards=%d: chunk %d mixes shard %d and shard %d", shards, bi, sh, got)
				}
			}
			logged[sh] = append(logged[sh], b...)
			total += len(b)
		}
		if total != len(pkts) {
			t.Fatalf("shards=%d: persister saw %d packets, want %d", shards, total, len(pkts))
		}
		want := make([][]core.PacketDigest, shards)
		for i := range pkts {
			sh := hash.ShardOf(uint64(pkts[i].Flow), uint64(shards))
			want[sh] = append(want[sh], pkts[i])
		}
		for sh := range logged {
			if len(logged[sh]) != len(want[sh]) {
				t.Fatalf("shards=%d shard %d: logged %d packets, want %d",
					shards, sh, len(logged[sh]), len(want[sh]))
			}
			for i := range logged[sh] {
				if logged[sh][i] != want[sh][i] {
					t.Fatalf("shards=%d shard %d: packet %d out of per-shard order", shards, sh, i)
				}
			}
		}
	}
}

// TestPersisterCheckpointRounds: Sink.Checkpoint barriers every shard
// and emits one record per shard whose packet counts sum to everything
// ingested — the conservation law recovery re-checks from the log.
func TestPersisterCheckpointRounds(t *testing.T) {
	eng, _, _, _ := testPlan(t, 101)
	pkts := encodeWorkload(eng, 7, 12, 40, 6)
	for _, shards := range []int{1, 4} {
		p := &recordingPersister{}
		sink, err := NewSink(eng, Config{Shards: shards, BatchSize: 64, Base: hash.Seed(0xD1CE)})
		if err != nil {
			t.Fatal(err)
		}
		sink.SetPersister(p)
		half := len(pkts) / 2
		sink.Ingest(pkts[:half])
		if round := sink.Checkpoint(); round != 1 {
			t.Fatalf("first checkpoint round %d", round)
		}
		sink.Ingest(pkts[half:])
		if round := sink.Checkpoint(); round != 2 {
			t.Fatalf("second checkpoint round %d", round)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}

		if len(p.ckpts) != 2*shards {
			t.Fatalf("shards=%d: %d checkpoint records, want %d", shards, len(p.ckpts), 2*shards)
		}
		sums := map[uint64]uint64{}
		perRound := map[uint64]int{}
		for _, cp := range p.ckpts {
			if cp.Shards != shards || cp.Shard < 0 || cp.Shard >= shards {
				t.Fatalf("malformed checkpoint record %+v", cp)
			}
			sums[cp.Round] += cp.Packets
			perRound[cp.Round]++
		}
		if perRound[1] != shards || perRound[2] != shards {
			t.Fatalf("shards=%d: incomplete rounds %v", shards, perRound)
		}
		if sums[1] != uint64(half) {
			t.Fatalf("shards=%d: round 1 covers %d packets, want %d", shards, sums[1], half)
		}
		if sums[2] != uint64(len(pkts)) {
			t.Fatalf("shards=%d: round 2 covers %d packets, want %d", shards, sums[2], len(pkts))
		}
	}
}

// TestSetPersisterDetach: a nil persister detaches cleanly and a replay
// (persister-less ingest) is never re-logged.
func TestSetPersisterDetach(t *testing.T) {
	eng, _, _, _ := testPlan(t, 101)
	pkts := encodeWorkload(eng, 7, 6, 20, 6)
	p := &recordingPersister{}
	sink, err := NewSink(eng, Config{Shards: 2, Base: hash.Seed(0xD1CE)})
	if err != nil {
		t.Fatal(err)
	}
	sink.Ingest(pkts[:50]) // replay phase: no persister attached
	sink.SetPersister(p)
	sink.Ingest(pkts[50:100])
	sink.SetPersister(nil)
	sink.Ingest(pkts[100:])
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	var logged int
	for _, b := range p.batches {
		logged += len(b)
	}
	if logged != 50 {
		t.Fatalf("persister logged %d packets, want exactly the attached window of 50", logged)
	}
}

// orderedPersister logs ingest chunks and checkpoint records in the one
// order they reached the persister.
type orderedPersister struct {
	mu     sync.Mutex
	shards uint64
	events []persistEvent
}

// persistEvent is one shard's ingest chunk (n packets) or, with ckpt set,
// its checkpoint record.
type persistEvent struct {
	shard int
	n     uint64
	ckpt  *CheckpointStats
}

func (p *orderedPersister) PersistIngest(batch []core.PacketDigest) {
	p.mu.Lock()
	defer p.mu.Unlock()
	shard := int(hash.ShardOf(uint64(batch[0].Flow), p.shards))
	p.events = append(p.events, persistEvent{shard: shard, n: uint64(len(batch))})
}

func (p *orderedPersister) PersistCheckpoint(cp CheckpointStats) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.events = append(p.events, persistEvent{shard: cp.Shard, ckpt: &cp})
}

// TestCheckpointOrdersAfterIngest is the property the single worker
// request must keep for Checkpoint: every PersistCheckpoint of round r on
// shard s follows all of that shard's earlier PersistIngest events and
// reports Packets equal to their sum — partial buffers are flushed and the
// queue drained before the record is cut — whether the packets came from
// the serial Ingest or from concurrent IngestStage callers that finished
// before the Checkpoint call, and every round reports every shard once.
func TestCheckpointOrdersAfterIngest(t *testing.T) {
	eng, _, _, _ := testPlan(t, 101)
	pkts := encodeWorkload(eng, 7, 16, 60, 6)
	for _, shards := range []int{1, 3} {
		p := &orderedPersister{shards: uint64(shards)}
		sink, err := NewSink(eng, Config{Shards: shards, BatchSize: 16, QueueDepth: 1, Base: hash.Seed(0xD1CE)})
		if err != nil {
			t.Fatal(err)
		}
		sink.SetPersister(p)
		const rounds = 6
		per := len(pkts) / rounds
		for r := 0; r < rounds; r++ {
			chunk := pkts[r*per : (r+1)*per]
			// Half through the serial tap in unaligned batches, half through
			// two concurrent stages; all of it lands before the barrier.
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				part := chunk[len(chunk)/2:][g*len(chunk)/4 : (g+1)*len(chunk)/4]
				wg.Add(1)
				go func() {
					defer wg.Done()
					st := sink.NewStage()
					for _, pd := range part {
						sh := hash.ShardOf(uint64(pd.Flow), uint64(shards))
						st.bufs[sh] = append(st.bufs[sh], pd)
					}
					sink.IngestStage(st)
				}()
			}
			for off := 0; off < len(chunk)/2; off += 7 {
				sink.Ingest(chunk[off:min(off+7, len(chunk)/2)])
			}
			wg.Wait()
			if got := sink.Checkpoint(); got != uint64(r+1) {
				t.Fatalf("shards=%d: checkpoint %d returned round %d", shards, r+1, got)
			}
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}

		ingested := make([]uint64, shards) // per shard, summed over the events so far
		reported := map[uint64]int{}
		for i, ev := range p.events {
			if ev.ckpt == nil {
				ingested[ev.shard] += ev.n
				continue
			}
			cp := *ev.ckpt
			if cp.Shards != shards || cp.Round < 1 || cp.Round > rounds {
				t.Fatalf("shards=%d: malformed checkpoint record %+v", shards, cp)
			}
			if cp.Packets != ingested[cp.Shard] {
				t.Fatalf("shards=%d event %d: round %d shard %d reports %d packets, its earlier PersistIngest events sum to %d",
					shards, i, cp.Round, cp.Shard, cp.Packets, ingested[cp.Shard])
			}
			reported[cp.Round]++
		}
		for r := uint64(1); r <= rounds; r++ {
			if reported[r] != shards {
				t.Fatalf("shards=%d: round %d has %d records, want one per shard", shards, r, reported[r])
			}
		}
	}
}
