package pipeline

import (
	"fmt"
	"sync"
	"testing"
	"time"

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
		sink, err := NewSink(eng, Config{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		sink.SetPersister(p)
		const batchLen = 37 // deliberately unaligned with the slab
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
		sink, err := NewSink(eng, Config{Shards: shards})
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
	sink, err := NewSink(eng, Config{Shards: 2})
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

// TestCheckpointOrdersAfterIngest is the property Checkpoint's lock hold
// must keep: every PersistCheckpoint of round r on shard s follows all of
// that shard's earlier PersistIngest events and reports Packets equal to
// their sum — the slab is recorded before the record is cut — whether the packets came from
// the serial Ingest or from concurrent IngestStage callers that finished
// before the Checkpoint call, and every round reports every shard once.
func TestCheckpointOrdersAfterIngest(t *testing.T) {
	eng, _, _, _ := testPlan(t, 101)
	pkts := encodeWorkload(eng, 7, 16, 60, 6)
	for _, shards := range []int{1, 3} {
		p := &orderedPersister{shards: uint64(shards)}
		sink, err := NewSink(eng, Config{Shards: shards})
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

		if n, err := checkRounds(p.events, shards); err != nil || n != rounds {
			t.Fatalf("shards=%d: %d rounds, want %d: %v", shards, n, rounds, err)
		}
	}
}

// heldPersister is an orderedPersister that, in round 1, stops right
// after it logs shard at's checkpoint record, signals held, and goes on
// only once release closes.
type heldPersister struct {
	orderedPersister
	at            int
	held, release chan struct{}
}

func (p *heldPersister) PersistCheckpoint(cp CheckpointStats) {
	p.orderedPersister.PersistCheckpoint(cp)
	if cp.Round == 1 && cp.Shard == p.at {
		close(p.held)
		<-p.release
	}
}

// checkRounds holds a log to what recovery assumes of checkpoint rounds
// and returns how many it holds: round r (1, 2, …) has one record a
// shard, in shard order, no chunk is logged between its first record and
// its last, and each record claims exactly the packets its shard logged
// before it.
func checkRounds(events []persistEvent, shards int) (rounds uint64, err error) {
	logged := make([]uint64, shards)
	open := 0 // records of the round being cut
	for i, ev := range events {
		if ev.ckpt == nil {
			if open > 0 {
				return rounds, fmt.Errorf("event %d: shard %d logged %d packets inside a round, after %d of its %d records",
					i, ev.shard, ev.n, open, shards)
			}
			logged[ev.shard] += ev.n
			continue
		}
		cp := *ev.ckpt
		if cp.Round != rounds+1 || cp.Shards != shards || cp.Shard != open {
			return rounds, fmt.Errorf("event %d: record %+v, want round %d shard %d of %d", i, cp, rounds+1, open, shards)
		}
		if cp.Packets != logged[cp.Shard] {
			return rounds, fmt.Errorf("event %d: round %d shard %d claims %d packets, it logged %d before it",
				i, cp.Round, cp.Shard, cp.Packets, logged[cp.Shard])
		}
		if open++; open == shards {
			open, rounds = 0, rounds+1
		}
	}
	if open != 0 {
		return rounds, fmt.Errorf("the log ends inside a round, after %d of its %d records", open, shards)
	}
	return rounds, nil
}

// TestCheckpointRoundIsAtomic runs Checkpoint while IngestStage callers
// run, with no lock outside the sink. First it forces the interleaving:
// round 1 stops at the middle shard's record while a stage into every
// shard lands and returns. Its chunks must wait in the slabs, not be
// logged between the round's records. Then ingesters and rounds run
// freely. Either way each round's records are consecutive in the log,
// and each claims what its shard logged before it.
func TestCheckpointRoundIsAtomic(t *testing.T) {
	eng, _, _, _ := testPlan(t, 101)
	const shards = 3
	pkts := encodeWorkload(eng, 7, 16, 60, 6)
	p := &heldPersister{orderedPersister: orderedPersister{shards: shards}, at: 1,
		held: make(chan struct{}), release: make(chan struct{})}
	sink, err := NewSink(eng, Config{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	sink.SetPersister(p)
	stage := func(st *Stage, pkts []core.PacketDigest) {
		for _, pd := range pkts {
			sh := hash.ShardOf(uint64(pd.Flow), shards)
			st.bufs[sh] = append(st.bufs[sh], pd)
		}
	}
	sink.Ingest(pkts[:100])
	round := make(chan uint64)
	go func() { round <- sink.Checkpoint() }()
	<-p.held
	st := sink.NewStage()
	stage(st, pkts[100:400])
	for sh, buf := range st.bufs {
		if len(buf) == 0 {
			t.Fatalf("the held stage has no chunk for shard %d", sh)
		}
	}
	landed := make(chan struct{})
	go func() { sink.IngestStage(st); close(landed) }()
	select {
	case <-landed:
	case <-time.After(10 * time.Second):
		t.Error("a stage into held shards waited for their locks")
	}
	close(p.release)
	if r := <-round; r != 1 {
		t.Fatalf("checkpoint returned round %d, want 1", r)
	}
	<-landed
	if _, err := checkRounds(p.events, shards); err != nil {
		t.Fatalf("forced interleaving: %v", err)
	}

	rest := stageWorkload(pkts[400:], 3)
	var wg sync.WaitGroup
	for _, stream := range rest {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := sink.NewStage()
			for off := 0; off < len(stream); off += 16 {
				stage(st, stream[off:min(off+16, len(stream))])
				sink.IngestStage(st)
			}
		}()
	}
	const rounds = 100
	for r := uint64(2); r <= rounds; r++ {
		if got := sink.Checkpoint(); got != r {
			t.Fatalf("checkpoint returned round %d, want %d", got, r)
		}
	}
	wg.Wait()
	if got := sink.Checkpoint(); got != rounds+1 {
		t.Fatalf("last checkpoint returned round %d, want %d", got, rounds+1)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := checkRounds(p.events, shards); err != nil || n != rounds+1 {
		t.Fatalf("free-running rounds: %d rounds, want %d: %v", n, rounds+1, err)
	}
	last := p.events[len(p.events)-shards:]
	var sum uint64
	for _, ev := range last {
		sum += ev.ckpt.Packets
	}
	if sum != uint64(len(pkts)) {
		t.Fatalf("the last round claims %d packets, %d were ingested", sum, len(pkts))
	}
}
