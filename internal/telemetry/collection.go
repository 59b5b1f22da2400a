package telemetry

import (
	"fmt"

	"repro/internal/netsim"
)

// This file models the telemetry *collection* path (§2, overhead problem
// 3, and §3.4's "we send fewer bytes from the sink to be analyzed"): the
// sink strips telemetry from packets and forwards reports to an analysis
// stack. Classic INT produces variable-size reports that grow with hop
// count, which complicates fixed-header collectors like Confluo [43];
// PINT reports are one fixed-width digest per packet.

// ReportKind distinguishes the two collection formats.
type ReportKind int

const (
	// ReportINT is a classic INT sink report: per-hop metadata records.
	ReportINT ReportKind = iota
	// ReportPINT is a PINT sink report: packet ID + fixed-width digest.
	ReportPINT
)

// Report is one sink-to-collector record.
type Report struct {
	Kind   ReportKind
	PktID  uint64
	FlowID uint64
	Hops   int
	// Bytes is the wire size of the report on the collection fabric.
	Bytes int
}

// reportHeaderBytes covers the collector framing: packet ID, flow ID and
// a length/hop field (fixed for PINT, present for INT too).
const reportHeaderBytes = 16

// INTReportBytes returns a classic INT report's size: framing plus 4B per
// value per hop (the INT spec's metadata encoding).
func INTReportBytes(hops, valuesPerHop int) int {
	return reportHeaderBytes + hops*valuesPerHop*netsim.INTValueBytes
}

// PINTReportBytes returns a PINT report's size: framing plus the global
// digest rounded up to bytes — independent of path length, which is what
// lets the collector use fixed-size ingestion.
func PINTReportBytes(digestBits int) int {
	return reportHeaderBytes + (digestBits+7)/8
}

// Sink aggregates collection-path statistics for one telemetry system.
type Sink struct {
	Kind         ReportKind
	ValuesPerHop int // INT only
	DigestBits   int // PINT only

	Reports     int
	TotalBytes  int64
	MinBytes    int
	MaxBytes    int
	uniformSize bool
}

// NewSink creates a collection-side sink model.
func NewSink(kind ReportKind, valuesPerHop, digestBits int) (*Sink, error) {
	switch kind {
	case ReportINT:
		if valuesPerHop < 1 {
			return nil, fmt.Errorf("telemetry: INT sink needs valuesPerHop >= 1")
		}
	case ReportPINT:
		if digestBits < 1 || digestBits > 64 {
			return nil, fmt.Errorf("telemetry: PINT sink digest bits %d out of [1,64]", digestBits)
		}
	default:
		return nil, fmt.Errorf("telemetry: unknown report kind %v", kind)
	}
	return &Sink{Kind: kind, ValuesPerHop: valuesPerHop, DigestBits: digestBits,
		MinBytes: 1 << 30, uniformSize: true}, nil
}

// Observe processes one data packet arriving at the sink and returns the
// report it would emit toward the collector.
func (s *Sink) Observe(pkt *netsim.Packet) Report {
	var bytes int
	switch s.Kind {
	case ReportINT:
		bytes = INTReportBytes(pkt.Hops, s.ValuesPerHop)
	case ReportPINT:
		bytes = PINTReportBytes(s.DigestBits)
	}
	s.Reports++
	s.TotalBytes += int64(bytes)
	if bytes < s.MinBytes {
		s.MinBytes = bytes
	}
	if bytes > s.MaxBytes {
		s.MaxBytes = bytes
	}
	if s.MinBytes != s.MaxBytes {
		s.uniformSize = false
	}
	return Report{Kind: s.Kind, PktID: pkt.ID, FlowID: pkt.FlowID,
		Hops: pkt.Hops, Bytes: bytes}
}

// FixedSize reports whether every report so far had the same size — the
// property fixed-header ingestion stacks (Confluo) require. PINT sinks
// are fixed-size by construction; INT sinks only when all paths have
// equal length.
func (s *Sink) FixedSize() bool { return s.Reports > 0 && s.uniformSize }

// MeanBytes returns the average report size.
func (s *Sink) MeanBytes() float64 {
	if s.Reports == 0 {
		return 0
	}
	return float64(s.TotalBytes) / float64(s.Reports)
}
