package pipeline

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
)

// BenchmarkSinkMixedFrames times a warm two-shard sink on frames of 256
// packets in two shapes of the same packets: frames of one flow each (the
// shape every pintbench workload sends, one shard and one run a frame),
// and frames of 256 flows, each flow's run one packet (an exporter that
// sends packets as they arrive). Every flow is recorded once before the
// clock starts, and its fixed route decodes in that pass. ns/pkt is per
// packet recorded, Barrier included.
func BenchmarkSinkMixedFrames(b *testing.B) {
	const flows, k, frame = 256, 6, 256
	eng, _, _, _ := testPlan(b, 53)
	mixed := routedWorkload(eng, 59, flows, frame, k) // round-robin over the flows
	single := slices.Clone(mixed)
	slices.SortStableFunc(single, func(x, y core.PacketDigest) int { return cmp.Compare(x.Flow, y.Flow) })
	for _, c := range []struct {
		name string
		pkts []core.PacketDigest
	}{{"flows=1", single}, {fmt.Sprintf("flows=%d", flows), mixed}} {
		b.Run(c.name, func(b *testing.B) {
			sink, err := NewSink(eng, Config{Shards: 2})
			if err != nil {
				b.Fatal(err)
			}
			defer sink.Close()
			ingest := func() {
				for i := 0; i < len(c.pkts); i += frame {
					sink.Ingest(c.pkts[i:min(i+frame, len(c.pkts))])
				}
				sink.Barrier()
			}
			ingest() // every flow admitted, its path decoded
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ingest()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(c.pkts)), "ns/pkt")
			if err := sink.Err(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
