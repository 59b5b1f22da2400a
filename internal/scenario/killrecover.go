package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/pipeline"
	"repro/internal/segstore"
)

func init() {
	Register(killRecoverScenario())
}

// killRecoverOut is one trial's crash-recovery record. Every field is a
// pure function of (seed, shards, workload shape): the store clock is an
// injected counter, the whole ingest stream is flushed before the
// simulated SIGKILL, and the torn tail is a constructed partial block —
// so the trial is golden-stable at any parallelism.
type killRecoverOut struct {
	shards     int
	ingested   uint64 // packets the collector accepted before the kill
	durable    uint64 // packets recovery replayed from the log
	tornBytes  int64  // unflushed tail the recovery report cut
	identical  bool   // recovered answers == uncrashed reference, byte for byte
	logIdent   bool   // log-only replay == recovered live state (VerifyAgainstLive)
	answerHash string // first 8 hex of sha256 over the answers JSON: equal across shard rows
	restarted  uint64 // packets after a post-recovery wave and a second restart
}

var killRecoverShardAxis = []int{1, 4}

func killRecoverScenario() Scenario {
	const (
		nFlows    = 4
		waveFlows = 2
	)
	return define(Scenario{
		Name:     "kill-recover",
		Figure:   "new",
		Desc:     "SIGKILLed-and-restarted durable collector answers bit-for-bit identically to one that never crashed, modulo an explicitly-reported unflushed tail",
		Topology: "fat tree (K=8) switch universe, single collector + segment log on scratch disk",
		Workload: "two ingest waves, a checkpointed flush, a constructed torn tail, kill, recover, re-ingest, restart",
		Queries:  "path 2×(b=4) + latency 8b in 16 bits",
		Stack:    "engine→pipeline sink→segstore writer→segment log→crash→recovery replay→answers",
	}, func(s Scale) ([]trial[killRecoverOut], error) {
		pktsPer := 40 * s.Trials
		if pktsPer > 400 {
			pktsPer = 400
		}
		seed := uint64(hash.Seed(s.Seed).Derive(0xC4A54))
		var trials []trial[killRecoverOut]
		for _, shards := range killRecoverShardAxis {
			trials = append(trials, trial[killRecoverOut]{
				Name: fmt.Sprintf("shards-%d", shards),
				Run: func() (killRecoverOut, error) {
					return runKillRecoverTrial(seed, shards, nFlows, waveFlows, pktsPer)
				},
			})
		}
		return trials, nil
	}, func(s Scale, outs []killRecoverOut) ([]Table, error) {
		t := Table{
			Title:   "Kill-recover: durable collector crash recovery vs an uncrashed run",
			Columns: []string{"sink shards", "ingested", "recovered", "torn bytes", "bit-identical", "log==live", "answers sha256[:8]", "after restart"},
		}
		for _, o := range outs {
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", o.shards),
				fmt.Sprintf("%d", o.ingested),
				fmt.Sprintf("%d", o.durable),
				fmt.Sprintf("%d", o.tornBytes),
				yesNo(o.identical),
				yesNo(o.logIdent),
				o.answerHash,
				fmt.Sprintf("%d", o.restarted),
			})
		}
		return []Table{t}, nil
	})
}

// tornTail is the constructed partial block appended after the simulated
// SIGKILL: a frame header promising far more payload than follows — the
// exact shape a crash mid-write leaves. Recovery must cut and report it.
func tornTail() []byte {
	buf := binary.LittleEndian.AppendUint32(nil, 1<<12) // claimed payload length
	buf = binary.LittleEndian.AppendUint32(buf, 0xDEAD) // crc of bytes that never landed
	return append(buf, 0x01, 0x02, 0x03, 0x04, 0x05)
}

// newestSegment returns the lexically-last segment file in dir — the one
// the crashed store was appending to.
func newestSegment(dir string) (string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".pint" {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return "", fmt.Errorf("scenario: no segments in %s", dir)
	}
	sort.Strings(names)
	return filepath.Join(dir, names[len(names)-1]), nil
}

// runKillRecoverTrial runs one shard-count cell of the torture loop:
// ingest two waves into a durable collector, flush, SIGKILL it (abandon
// + a constructed torn tail), recover, and demand the restarted
// collector answer byte-identically to a collector that never crashed —
// with the torn tail reported to the byte. Then ingest a third wave,
// restart once more, and demand the log still accounts for everything.
func runKillRecoverTrial(seed uint64, shards, nFlows, waveFlows, pktsPer int) (killRecoverOut, error) {
	out := killRecoverOut{shards: shards}
	tb, err := collector.NewTestbench(seed, 5)
	if err != nil {
		return out, err
	}
	dir, cleanup, err := tb.ScratchDir("pint-killrecover-")
	if err != nil {
		return out, err
	}
	defer cleanup() // bound at creation: a failed start below cannot leak the dir

	pcfg := pipeline.Config{Shards: shards, BatchSize: 64, Base: tb.Base}
	opts := func() collector.DurableOptions {
		var ts uint64
		return collector.DurableOptions{
			DataDir: dir,
			Options: segstore.Options{
				NoSync: true, // scratch disk; the smoke test exercises real fsync
				Now:    func() uint64 { ts += 10; return ts },
			},
		}
	}
	d, err := collector.OpenDurableSink(tb.Engine, tb.Queries(), pcfg, opts())
	if err != nil {
		return out, err
	}

	// Two ingest waves, all flushed to the log (the deterministic durable
	// prefix), then the kill: abandon the writer mid-life and plant a
	// torn half-block, exactly what a SIGKILL mid-append leaves on disk.
	var stream []core.PacketDigest
	ingest := func(exp uint64, flows, pkts int) {
		for f := 0; f < flows; f++ {
			batch := tb.FlowBatch(exp, f, pkts, nil, nil)
			d.Sink.Ingest(batch)
			stream = append(stream, batch...)
		}
	}
	ingest(1, nFlows, pktsPer)
	if err := d.Checkpoint(); err != nil {
		return out, err
	}
	ingest(2, waveFlows, pktsPer)
	if err := d.Checkpoint(); err != nil {
		return out, err
	}
	out.ingested = uint64(len(stream))
	d.Abandon()
	seg, err := newestSegment(dir)
	if err != nil {
		return out, err
	}
	torn := tornTail()
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return out, err
	}
	if _, err := f.Write(torn); err != nil {
		f.Close()
		return out, err
	}
	if err := f.Close(); err != nil {
		return out, err
	}

	// Recovery: the torn tail is reported to the byte, every flushed
	// packet replays, and the answers are bit-identical to a collector
	// that ingested the same durable prefix and never crashed.
	re, err := collector.OpenDurableSink(tb.Engine, tb.Queries(), pcfg, opts())
	if err != nil {
		return out, err
	}
	closeRe := re.Close
	defer func() { closeRe() }()
	out.durable = re.Replayed
	out.tornBytes = re.Recovery.TornBytes
	if out.tornBytes != int64(len(torn)) {
		return out, fmt.Errorf("scenario: recovery cut %d torn bytes, planted %d", out.tornBytes, len(torn))
	}
	if out.durable != out.ingested {
		return out, fmt.Errorf("scenario: recovered %d packets, flushed %d — conservation broken", out.durable, out.ingested)
	}

	ref, err := pipeline.NewSink(tb.Engine, pcfg)
	if err != nil {
		return out, err
	}
	ref.Ingest(stream[:out.durable])
	if err := ref.Close(); err != nil {
		return out, err
	}
	wantJSON, err := answersJSON(ref, tb.Queries(), nil)
	if err != nil {
		return out, err
	}
	gotJSON, err := answersJSON(re.Sink, tb.Queries(), nil)
	if err != nil {
		return out, err
	}
	out.identical = bytes.Equal(gotJSON, wantJSON)
	if !out.identical {
		return out, fmt.Errorf("scenario: shards=%d: recovered answers diverge from the uncrashed run", shards)
	}
	sum := sha256.Sum256(gotJSON)
	out.answerHash = fmt.Sprintf("%x", sum[:4])
	if err := re.VerifyAgainstLive(); err != nil {
		return out, err
	}
	out.logIdent = true

	// Life goes on after recovery: a third wave, a clean shutdown, and a
	// second restart must account for every packet ever flushed.
	for f := 0; f < waveFlows; f++ {
		batch := tb.FlowBatch(3, uint64FlowSalt+f, pktsPer, nil, nil)
		re.Sink.Ingest(batch)
		stream = append(stream, batch...)
	}
	if err := re.Checkpoint(); err != nil {
		return out, err
	}
	if err := re.Close(); err != nil {
		return out, err
	}
	closeRe = func() error { return nil }

	final, err := collector.OpenDurableSink(tb.Engine, tb.Queries(), pcfg, opts())
	if err != nil {
		return out, err
	}
	defer final.Close()
	out.restarted = final.Replayed
	if out.restarted != uint64(len(stream)) {
		return out, fmt.Errorf("scenario: second restart replayed %d packets, want %d", out.restarted, len(stream))
	}
	return out, nil
}

// uint64FlowSalt offsets the third wave's flow indices so they are
// disjoint from the first two waves'.
const uint64FlowSalt = 100
