package telemetry

import (
	"testing"

	"repro/internal/netsim"
)

func TestSinkValidation(t *testing.T) {
	if _, err := NewSink(ReportINT, 0, 0); err == nil {
		t.Fatal("INT sink without values must fail")
	}
	if _, err := NewSink(ReportPINT, 0, 0); err == nil {
		t.Fatal("PINT sink without digest bits must fail")
	}
	if _, err := NewSink(ReportPINT, 0, 65); err == nil {
		t.Fatal("65-bit digest must fail")
	}
	if _, err := NewSink(ReportKind(9), 1, 1); err == nil {
		t.Fatal("unknown kind must fail")
	}
}

func TestINTReportGrowsWithHops(t *testing.T) {
	s, err := NewSink(ReportINT, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2 := s.Observe(&netsim.Packet{ID: 1, Hops: 2})
	r5 := s.Observe(&netsim.Packet{ID: 2, Hops: 5})
	if r5.Bytes <= r2.Bytes {
		t.Fatal("INT report must grow with hop count")
	}
	// 5 hops × 3 values × 4B = 60B payload + 16B framing.
	if r5.Bytes != 76 {
		t.Fatalf("5-hop report %dB, want 76", r5.Bytes)
	}
	if s.FixedSize() {
		t.Fatal("variable path lengths must break fixed-size ingestion")
	}
}

func TestPINTReportFixedSize(t *testing.T) {
	s, err := NewSink(ReportPINT, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	for hops := 1; hops <= 30; hops++ {
		r := s.Observe(&netsim.Packet{ID: uint64(hops), Hops: hops})
		if r.Bytes != 18 {
			t.Fatalf("PINT report %dB at %d hops, want 18 regardless", r.Bytes, hops)
		}
	}
	if !s.FixedSize() {
		t.Fatal("PINT reports must be fixed-size (the Confluo-compatibility claim)")
	}
}

func TestCollectionBandwidthComparison(t *testing.T) {
	// §3.4: PINT sends fewer bytes from the sink. At 5 hops / 3 values,
	// INT reports are 76B vs PINT's 18B — a >4x collection saving.
	intSink, _ := NewSink(ReportINT, 3, 0)
	pintSink, _ := NewSink(ReportPINT, 0, 16)
	for i := 0; i < 1000; i++ {
		intSink.Observe(&netsim.Packet{ID: uint64(i), Hops: 5})
		pintSink.Observe(&netsim.Packet{ID: uint64(i), Hops: 5})
	}
	// Collection bandwidth at any packet rate is proportional to MeanBytes.
	if pintSink.MeanBytes()*4 > intSink.MeanBytes() {
		t.Fatalf("PINT collection %vB/report not >4x below INT's %v", pintSink.MeanBytes(), intSink.MeanBytes())
	}
	if intSink.MeanBytes() != 76 || pintSink.MeanBytes() != 18 {
		t.Fatalf("mean sizes %v / %v", intSink.MeanBytes(), pintSink.MeanBytes())
	}
}

func TestReportBytesFormulas(t *testing.T) {
	if INTReportBytes(5, 1) != 16+20 {
		t.Fatal("INT formula broken")
	}
	if PINTReportBytes(1) != 17 {
		t.Fatal("sub-byte digests round up to one byte")
	}
	if PINTReportBytes(64) != 24 {
		t.Fatal("64-bit digest framing broken")
	}
}
