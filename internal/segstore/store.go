package segstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// Segment file naming and framing constants.
const (
	// segMagic opens every segment file.
	segMagic = "PSG1"
	// segHeaderLen is the fixed file header: just the magic.
	segHeaderLen = 4
	// trailerMagic closes every sealed segment, after the footer offset.
	trailerMagic = "PIDX"
	// trailerLen is footerOff uint64 LE + trailerMagic.
	trailerLen = 12
	// segSuffix is the segment file extension.
	segSuffix = ".pint"
)

// segName formats segment file names so lexical order is sequence order.
func segName(seq uint64) string { return fmt.Sprintf("seg-%016d%s", seq, segSuffix) }

// Options shapes a Store.
type Options struct {
	// SegmentBytes rotates the active segment once it grows past this
	// size (default 4 MiB). Rotation seals the segment: index footer,
	// trailer, fsync.
	SegmentBytes int64
	// MaxSegments, when > 0, caps the sealed segment count; rotation
	// deletes the oldest sealed segments beyond it and records the
	// deletion in a KindRetain block.
	MaxSegments int
	// NoSync skips fsync everywhere — only for tests and benchmarks where
	// the page cache is the durability domain anyway (a SIGKILLed process
	// loses no written bytes; only machine loss needs fsync).
	NoSync bool
	// Now is the block timestamp clock (default wall-clock nanoseconds).
	// The store clamps it monotone non-decreasing. Deterministic tests
	// inject a counter.
	Now func() uint64
}

// RecoveryReport says what Open found on disk.
type RecoveryReport struct {
	// Segments and Blocks count what survived (the active segment's
	// replayable blocks included).
	Segments int    `json:"segments"`
	Blocks   int    `json:"blocks"`
	Packets  uint64 `json:"packets"`
	// TornBytes were discarded from TornSegment's tail: a crash cut the
	// last write mid-block, and recovery truncated back to the last block
	// boundary. Zero means the log ended cleanly.
	TornBytes   int64  `json:"torn_bytes"`
	TornSegment string `json:"torn_segment,omitempty"`
	// DeletedSegments/DeletedPackets total what retention removed over
	// the store's lifetime (from the latest KindRetain record).
	DeletedSegments uint64 `json:"deleted_segments"`
	DeletedPackets  uint64 `json:"deleted_packets"`
	// HorizonTS is the newest timestamp retention has deleted; windows at
	// or before it can only be answered partially.
	HorizonTS uint64 `json:"horizon_ts"`
	// MinTS/MaxTS bound the surviving blocks (both zero when empty).
	MinTS uint64 `json:"min_ts"`
	MaxTS uint64 `json:"max_ts"`
}

// segMeta is one sealed segment's directory entry.
type segMeta struct {
	name    string
	seq     uint64
	size    int64
	minTS   uint64
	maxTS   uint64
	packets uint64
	blocks  int
}

// Store is the append-only segment log. Appends come from one writer
// goroutine (segstore.Writer); Scan and the stats methods are safe from
// any goroutine.
type Store struct {
	dir  string
	opts Options

	mu     sync.Mutex
	f      *os.File
	seq    uint64
	size   int64
	idx    []IndexEntry
	minTS  uint64
	maxTS  uint64
	pkts   uint64 // active segment's digest packets
	blocks int    // active segment's block count
	lastTS uint64 // monotone clamp for opts.Now

	sealed []segMeta

	// durablePkts counts digest packets across sealed + active segments;
	// delSegs/delPkts/horizon mirror the latest KindRetain record.
	durablePkts uint64
	delSegs     uint64
	delPkts     uint64
	horizon     uint64

	scratch []byte
	closed  bool
}

// Open opens (creating if needed) the segment log in dir, recovers it —
// truncating a torn tail back to the last valid block, refusing anything
// that looks like corruption rather than truncation — and returns the
// store positioned to append.
func Open(dir string, opts Options) (*Store, *RecoveryReport, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 4 << 20
	}
	// A rotation threshold below one metadata block would rotate forever;
	// 4 KiB is the floor (tests forcing rotation call Rotate directly).
	if opts.SegmentBytes < 4096 {
		opts.SegmentBytes = 4096
	}
	if opts.Now == nil {
		opts.Now = func() uint64 { return uint64(time.Now().UnixNano()) }
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("segstore: %w", err)
	}
	s := &Store{dir: dir, opts: opts}
	report, err := s.recoverLog()
	if err != nil {
		return nil, nil, err
	}
	return s, report, nil
}

// listSegments returns dir's segment files in sequence order. A
// compaction temp (seg-….pint.compact) is an error, not a segment: it may
// be the only copy of the segments an older version folded into it, and
// nothing here can finish or verify that fold, so it is not ours to skip
// or delete.
func (s *Store) listSegments() ([]string, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("segstore: %w", err)
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "seg-") {
			continue
		}
		if strings.HasSuffix(name, segSuffix+".compact") {
			return nil, fmt.Errorf("segstore: %s holds a stray compaction file %q: move it away before opening", s.dir, name)
		}
		if len(name) == len(segName(0)) && filepath.Ext(name) == segSuffix {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// recoverLog scans every segment, validates or repairs the last one, and
// leaves the store appending to a fresh segment after the highest
// sequence seen (never into a repaired file: its sealed index would lie
// about blocks appended later). An unsealed survivor — the crash victim,
// already truncated back to its last complete block — is re-sealed here,
// so after Open every segment on disk carries a verified index.
func (s *Store) recoverLog() (*RecoveryReport, error) {
	names, err := s.listSegments()
	if err != nil {
		return nil, err
	}
	report := &RecoveryReport{}
	ckpt := newCkptChecker()
	nextSeq := uint64(0)
	for i, name := range names {
		path := filepath.Join(s.dir, name)
		last := i == len(names)-1
		meta, entries, torn, wasSealed, err := s.scanSegment(path, last, ckpt)
		if err != nil {
			return nil, err
		}
		if torn > 0 {
			report.TornBytes = torn
			report.TornSegment = name
		}
		switch {
		case meta.blocks == 0:
			// Empty survivor (crash right after rotation); drop it rather
			// than carry a zero-block file forever.
			if err := os.Remove(path); err != nil {
				return nil, fmt.Errorf("segstore: %w", err)
			}
		default:
			if !wasSealed {
				sealedMeta, err := sealFile(path, meta, entries, s.opts.NoSync)
				if err != nil {
					return nil, err
				}
				meta = sealedMeta
			}
			s.sealed = append(s.sealed, meta)
			s.durablePkts += meta.packets
			report.Segments++
			report.Blocks += meta.blocks
			report.Packets += meta.packets
			if report.MinTS == 0 || meta.minTS < report.MinTS {
				report.MinTS = meta.minTS
			}
			if meta.maxTS > report.MaxTS {
				report.MaxTS = meta.maxTS
			}
		}
		if meta.seq >= nextSeq {
			nextSeq = meta.seq + 1
		}
		if meta.maxTS > s.lastTS {
			s.lastTS = meta.maxTS
		}
	}
	if err := ckpt.verify(); err != nil {
		return nil, err
	}
	report.DeletedSegments = s.delSegs
	report.DeletedPackets = s.delPkts
	report.HorizonTS = s.horizon
	if err := s.openSegment(nextSeq); err != nil {
		return nil, err
	}
	return report, nil
}

// sealFile appends an index footer and trailer to a recovered, unsealed
// segment so every surviving segment leaves recovery sealed.
func sealFile(path string, meta segMeta, entries []IndexEntry, noSync bool) (segMeta, error) {
	idx := Index{MinTS: meta.minTS, MaxTS: meta.maxTS, Packets: meta.packets, Entries: entries}
	buf, err := appendSeal(nil, idx, meta.size)
	if err != nil {
		return segMeta{}, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return segMeta{}, fmt.Errorf("segstore: re-sealing: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return segMeta{}, fmt.Errorf("segstore: re-sealing: %w", err)
	}
	if !noSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return segMeta{}, fmt.Errorf("segstore: re-sealing: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return segMeta{}, fmt.Errorf("segstore: re-sealing: %w", err)
	}
	meta.size += int64(len(buf))
	return meta, nil
}

// scanSegment walks one segment's blocks. Sealed segments must verify
// end to end (index directory included). The last, possibly-unsealed
// segment may end mid-block — wire.ErrShortFrame — in which case the
// file is truncated back to the last valid block and the cut tail is
// reported; a checksum mismatch anywhere is corruption and refuses to
// open. It returns the (possibly repaired) segment's metadata, its block
// directory, the torn byte count, and whether the segment was sealed.
func (s *Store) scanSegment(path string, last bool, ckpt *ckptChecker) (segMeta, []IndexEntry, int64, bool, error) {
	fail := func(err error) (segMeta, []IndexEntry, int64, bool, error) {
		return segMeta{}, nil, 0, false, err
	}
	name := filepath.Base(path)
	var seq uint64
	if _, err := fmt.Sscanf(name, "seg-%016d"+segSuffix, &seq); err != nil {
		return fail(fmt.Errorf("segstore: segment name %q: %w", name, err))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return fail(fmt.Errorf("segstore: %w", err))
	}
	if len(data) < segHeaderLen || string(data[:segHeaderLen]) != segMagic {
		if last && len(data) < segHeaderLen && string(data) == segMagic[:len(data)] {
			// The crash hit mid-header: the newest file holds a strict
			// prefix of the magic and nothing else. Truncate it to empty;
			// the zero-block path removes it.
			if err := os.Truncate(path, 0); err != nil {
				return fail(fmt.Errorf("segstore: truncating torn header: %w", err))
			}
			return segMeta{name: name, seq: seq}, nil, int64(len(data)), false, nil
		}
		return fail(fmt.Errorf("segstore: %s: bad segment magic", name))
	}
	meta := segMeta{name: name, seq: seq, size: int64(len(data))}

	// A sealed segment ends with `footerOff | "PIDX"`; validate the
	// directory against the blocks we are about to scan. The newest
	// segment gets one extra grace: a torn, unsealed tail ends in four
	// arbitrary bytes, which can coincide with the trailer magic — so a
	// trailer that fails to validate there falls back to the unsealed
	// torn-tail scan instead of refusing the whole log.
	var sealedIdx *Index
	rest := data[segHeaderLen:]
	if n := len(data); n >= segHeaderLen+trailerLen && string(data[n-4:]) == trailerMagic {
		idx, footerOff, terr := decodeTrailer(data, name)
		switch {
		case terr == nil:
			sealedIdx = &idx
			rest = data[segHeaderLen:footerOff]
		case last:
			// Coincidental magic on the crash victim: scan it unsealed.
		default:
			return fail(terr)
		}
	} else if !last {
		// Only the newest segment may be unsealed (a crash mid-append);
		// an unsealed older segment means bytes went missing after the
		// fact — that is corruption, not truncation.
		return fail(fmt.Errorf("segstore: %s: unsealed segment is not the newest", name))
	}

	var torn int64
	offset := uint64(segHeaderLen)
	var entries []IndexEntry
	for len(rest) > 0 {
		blk, after, err := decodeBlock(rest)
		switch {
		case err == nil:
		case errors.Is(err, wire.ErrShortFrame) && sealedIdx == nil:
			// Torn tail: the crash cut this block mid-write. Truncate the
			// file back to the last complete block and report the loss.
			torn = int64(len(rest))
			if err := os.Truncate(path, int64(offset)); err != nil {
				return fail(fmt.Errorf("segstore: truncating torn tail: %w", err))
			}
			meta.size = int64(offset)
			rest = nil
			continue
		default:
			return fail(fmt.Errorf("segstore: %s: block at offset %d: %w", name, offset, err))
		}
		if blk.Kind == kindIndex && sealedIdx == nil {
			// An index block without its trailer: the crash hit between
			// the footer write and the trailer write. The directory is
			// metadata only — cut it and stay unsealed.
			torn = int64(len(rest))
			if err := os.Truncate(path, int64(offset)); err != nil {
				return fail(fmt.Errorf("segstore: truncating torn index: %w", err))
			}
			meta.size = int64(offset)
			rest = nil
			continue
		}
		pkts, err := s.absorbBlock(blk, ckpt, name, offset)
		if err != nil {
			return fail(err)
		}
		entries = append(entries, IndexEntry{Offset: offset, Kind: blk.Kind, TS: blk.TS, Packets: pkts})
		meta.blocks++
		meta.packets += pkts
		if meta.blocks == 1 || blk.TS < meta.minTS {
			meta.minTS = blk.TS
		}
		if blk.TS > meta.maxTS {
			meta.maxTS = blk.TS
		}
		offset += uint64(len(rest) - len(after))
		rest = after
	}
	if sealedIdx != nil {
		if err := checkIndex(*sealedIdx, entries, meta, name); err != nil {
			return fail(err)
		}
	}
	return meta, entries, torn, sealedIdx != nil, nil
}

// decodeTrailer validates a trailer-bearing segment image and decodes
// its index footer, returning the index and the footer block's offset
// (the data-block region ends there). The caller has already matched the
// trailing magic.
func decodeTrailer(data []byte, name string) (Index, uint64, error) {
	n := len(data)
	footerOff := binary.LittleEndian.Uint64(data[n-trailerLen:])
	if footerOff < segHeaderLen || footerOff >= uint64(n-trailerLen) {
		return Index{}, 0, fmt.Errorf("segstore: %s: index footer offset %d outside file", name, footerOff)
	}
	blk, after, err := decodeBlock(data[footerOff : n-trailerLen])
	if err != nil || blk.Kind != kindIndex || len(after) != 0 {
		return Index{}, 0, fmt.Errorf("segstore: %s: sealed trailer points at no index block", name)
	}
	idx, err := DecodeIndex(blk.Body)
	if err != nil {
		return Index{}, 0, fmt.Errorf("segstore: %s: %w", name, err)
	}
	return idx, footerOff, nil
}

// absorbBlock validates one scanned block's body and updates the store's
// retention/checkpoint recovery state. It returns the block's digest
// packet count.
func (s *Store) absorbBlock(blk Block, ckpt *ckptChecker, name string, offset uint64) (uint64, error) {
	switch blk.Kind {
	case KindDigests:
		// Validated in full, counted, not materialized: replay decodes it.
		n, err := wire.Count(blk.Body)
		if err != nil {
			return 0, fmt.Errorf("segstore: %s: digest block at offset %d: %w", name, offset, err)
		}
		ckpt.digests(uint64(n))
		return uint64(n), nil
	case KindCheckpoint:
		cp, err := DecodeCheckpoint(blk.Body)
		if err != nil {
			return 0, fmt.Errorf("segstore: %s: checkpoint at offset %d: %w", name, offset, err)
		}
		if err := ckpt.checkpoint(cp); err != nil {
			return 0, fmt.Errorf("segstore: %s: checkpoint at offset %d: %w", name, offset, err)
		}
		return 0, nil
	case KindRetain:
		r, err := DecodeRetain(blk.Body)
		if err != nil {
			return 0, fmt.Errorf("segstore: %s: retain record at offset %d: %w", name, offset, err)
		}
		if r.Segments < s.delSegs || r.Packets < s.delPkts {
			return 0, fmt.Errorf("segstore: %s: retain record at offset %d went backwards", name, offset)
		}
		s.delSegs, s.delPkts, s.horizon = r.Segments, r.Packets, r.HorizonTS
		ckpt.retain(r)
		return 0, nil
	default:
		return 0, fmt.Errorf("segstore: %s: unknown block kind %#02x at offset %d", name, blk.Kind, offset)
	}
}

// checkIndex verifies a sealed segment's directory against its scanned
// blocks — a directory that disagrees with the data is corruption.
func checkIndex(idx Index, entries []IndexEntry, meta segMeta, name string) error {
	if len(idx.Entries) != len(entries) {
		return fmt.Errorf("segstore: %s: index lists %d blocks, found %d", name, len(idx.Entries), len(entries))
	}
	for i, e := range entries {
		if idx.Entries[i] != e {
			return fmt.Errorf("segstore: %s: index entry %d is %+v, block is %+v", name, i, idx.Entries[i], e)
		}
	}
	if idx.Packets != meta.packets {
		return fmt.Errorf("segstore: %s: index packet total %d, blocks hold %d", name, idx.Packets, meta.packets)
	}
	return nil
}

// ckptChecker verifies the never-double-count invariant while scanning:
// every digest block precedes the checkpoint round that covers it (the
// writer's FIFO guarantees it at append time), so a completed round —
// all of its shards reported — claims exactly the digest packets logged
// before it. Retention complicates the bookkeeping: a Retain marker
// always lands later in the log than the checkpoints whose covered
// digests it deleted, so rounds are collected during the scan and
// validated once the final cumulative deletion count is known, against
// the bounds seen_at_round ≤ sum ≤ seen_at_round + deleted_final.
type ckptChecker struct {
	seen     uint64 // digest packets scanned so far
	deleted  uint64 // retention-deleted packets (cumulative, from Retain)
	round    uint64
	shards   int
	got      int
	sum      uint64
	reported []bool // per-shard: reported in the accumulating round?
	rounds   []completedRound
}

// completedRound is one fully-reported checkpoint round awaiting
// end-of-scan validation.
type completedRound struct {
	round uint64
	sum   uint64 // packets the round's shards claim recorded
	seen  uint64 // digest packets the log held when the round completed
}

func newCkptChecker() *ckptChecker { return &ckptChecker{} }

func (c *ckptChecker) digests(n uint64) { c.seen += n }
func (c *ckptChecker) retain(r Retain)  { c.deleted = r.Packets }

func (c *ckptChecker) checkpoint(cp Checkpoint) error {
	if c.got > 0 && (cp.Round != c.round || cp.Shards != c.shards || c.reported[cp.Shard]) {
		// A round abandoned mid-write (crash between shard records) is
		// legal; just start accumulating the new round. Round numbers
		// restart at 1 every process lifetime, so a matching round number
		// is not proof of the same round: a shard index reporting twice is
		// the tell that a new incarnation's round began, and its records
		// must never stitch onto the orphan's into a bogus "complete"
		// round.
		c.got, c.sum = 0, 0
	}
	if c.got == 0 {
		if cap(c.reported) < cp.Shards {
			c.reported = make([]bool, cp.Shards)
		} else {
			c.reported = c.reported[:cp.Shards]
			for i := range c.reported {
				c.reported[i] = false
			}
		}
	}
	c.round, c.shards = cp.Round, cp.Shards
	c.reported[cp.Shard] = true
	c.sum += cp.Packets
	c.got++
	if c.got == c.shards {
		// got == shards with no shard repeating (a repeat resets above)
		// means every index in [0, shards) reported exactly once.
		c.rounds = append(c.rounds, completedRound{round: c.round, sum: c.sum, seen: c.seen})
		c.got, c.sum = 0, 0
	}
	return nil
}

// verify runs once the whole log has been scanned. A round claiming less
// than the log held is a double count (replaying the log would answer
// with more packets than were recorded); claiming more than the log
// plus everything retention ever deleted is loss.
func (c *ckptChecker) verify() error {
	for _, r := range c.rounds {
		if r.sum < r.seen || r.sum > r.seen+c.deleted {
			return fmt.Errorf("segstore: round %d claims %d packets recorded, log held %d (+%d deleted) — double count or loss",
				r.round, r.sum, r.seen, c.deleted)
		}
	}
	return nil
}

// openSegment creates and headers the next active segment.
func (s *Store) openSegment(seq uint64) error {
	path := filepath.Join(s.dir, segName(seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("segstore: %w", err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return fmt.Errorf("segstore: %w", err)
	}
	s.f, s.seq, s.size = f, seq, segHeaderLen
	s.idx, s.minTS, s.maxTS, s.pkts, s.blocks = s.idx[:0], 0, 0, 0, 0
	return nil
}

// now reads the clock, clamped monotone.
func (s *Store) now() uint64 {
	ts := s.opts.Now()
	if ts < s.lastTS {
		ts = s.lastTS
	}
	s.lastTS = ts
	return ts
}

// append finishes the block begun in blk (beginBlock, then the body) and
// writes it to the active segment, rotating if the segment grew past the
// configured size. Callers begin their blocks in s.scratch, which keeps
// whatever storage blk grew into, so a steady stream of appends allocates
// nothing.
func (s *Store) append(kind uint8, blk []byte, packets uint64) error {
	if s.closed {
		return fmt.Errorf("segstore: append after Close")
	}
	s.scratch = blk
	ts := s.now()
	if err := finishBlock(blk, kind, ts); err != nil {
		return err
	}
	if _, err := s.f.Write(blk); err != nil {
		return fmt.Errorf("segstore: %w", err)
	}
	s.idx = append(s.idx, IndexEntry{Offset: uint64(s.size), Kind: kind, TS: ts, Packets: packets})
	if s.blocks == 0 {
		s.minTS = ts
	}
	s.maxTS = ts
	s.blocks++
	s.size += int64(len(blk))
	s.pkts += packets
	s.durablePkts += packets
	if s.size >= s.opts.SegmentBytes {
		return s.rotateLocked()
	}
	return nil
}

// AppendDigests logs one ingested batch — the WAL record. The batch is
// marshaled once, straight into the frame it is written from.
func (s *Store) AppendDigests(batch []core.PacketDigest) error {
	if len(batch) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	blk, err := wire.AppendMarshal(beginBlock(s.scratch), batch)
	if err != nil {
		return err
	}
	return s.append(KindDigests, blk, uint64(len(batch)))
}

// AppendCheckpoint logs one shard's checkpoint record.
func (s *Store) AppendCheckpoint(cp Checkpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.append(KindCheckpoint, appendCheckpointBody(beginBlock(s.scratch), cp), 0)
}

func (s *Store) rotateLocked() error {
	if s.blocks == 0 {
		return nil
	}
	meta, err := s.sealLocked()
	if err != nil {
		return err
	}
	s.sealed = append(s.sealed, meta)
	if err := s.openSegment(s.seq + 1); err != nil {
		return err
	}
	return s.retainLocked()
}

// sealLocked writes the active segment's index footer and trailer,
// fsyncs, closes the file, and returns its metadata.
func (s *Store) sealLocked() (segMeta, error) {
	idx := Index{MinTS: s.minTS, MaxTS: s.maxTS, Packets: s.pkts, Entries: s.idx}
	seal, err := appendSeal(s.scratch, idx, s.size)
	if err != nil {
		return segMeta{}, err
	}
	s.scratch = seal
	if _, err := s.f.Write(seal); err != nil {
		return segMeta{}, fmt.Errorf("segstore: sealing: %w", err)
	}
	if !s.opts.NoSync {
		if err := s.f.Sync(); err != nil {
			return segMeta{}, fmt.Errorf("segstore: sealing: %w", err)
		}
	}
	if err := s.f.Close(); err != nil {
		return segMeta{}, fmt.Errorf("segstore: sealing: %w", err)
	}
	return segMeta{
		name:    segName(s.seq),
		seq:     s.seq,
		size:    s.size + int64(len(seal)),
		minTS:   s.minTS,
		maxTS:   s.maxTS,
		packets: s.pkts,
		blocks:  s.blocks,
	}, nil
}

// retainLocked deletes the oldest sealed segments beyond MaxSegments and
// records the deletion so conservation checks and the query horizon
// survive it. The marker is logged and synced BEFORE the files are
// unlinked: a crash in between leaves segments the marker already counts
// as deleted — an overcounted horizon the next retention pass repairs —
// never digests that vanished without a durable trace.
func (s *Store) retainLocked() error {
	if s.opts.MaxSegments <= 0 || len(s.sealed) <= s.opts.MaxSegments {
		return nil
	}
	drop := s.sealed[:len(s.sealed)-s.opts.MaxSegments]
	for _, m := range drop {
		s.delSegs++
		s.delPkts += m.packets
		if m.maxTS > s.horizon {
			s.horizon = m.maxTS
		}
	}
	r := Retain{Segments: s.delSegs, Packets: s.delPkts, HorizonTS: s.horizon}
	if err := s.append(KindRetain, appendRetainBody(beginBlock(s.scratch), r), 0); err != nil {
		return err
	}
	if !s.opts.NoSync {
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("segstore: retention: %w", err)
		}
	}
	for _, m := range drop {
		if err := os.Remove(filepath.Join(s.dir, m.name)); err != nil {
			return fmt.Errorf("segstore: retention: %w", err)
		}
		s.durablePkts -= m.packets
	}
	s.sealed = append(s.sealed[:0], s.sealed[len(drop):]...)
	return nil
}

// Sync fsyncs the active segment — the durability point a checkpoint
// interval ends with.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.opts.NoSync {
		return nil
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("segstore: %w", err)
	}
	return nil
}

// Close seals the active segment and closes the store.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.blocks == 0 {
		// Nothing appended since the last rotation: delete the empty file
		// rather than sealing a blockless segment.
		name := s.f.Name()
		if err := s.f.Close(); err != nil {
			return fmt.Errorf("segstore: %w", err)
		}
		return os.Remove(name)
	}
	meta, err := s.sealLocked()
	if err != nil {
		return err
	}
	s.sealed = append(s.sealed, meta)
	return nil
}

// Stats is the store's live accounting.
type Stats struct {
	// Segments counts sealed segments; the active segment rides in
	// ActiveBlocks/ActiveBytes.
	Segments        int    `json:"segments"`
	Packets         uint64 `json:"packets"`
	ActiveBlocks    int    `json:"active_blocks"`
	ActiveBytes     int64  `json:"active_bytes"`
	DeletedSegments uint64 `json:"deleted_segments"`
	DeletedPackets  uint64 `json:"deleted_packets"`
	HorizonTS       uint64 `json:"horizon_ts"`
}

// Stats reports the store's accounting.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Segments:        len(s.sealed),
		Packets:         s.durablePkts,
		ActiveBlocks:    s.blocks,
		ActiveBytes:     s.size,
		DeletedSegments: s.delSegs,
		DeletedPackets:  s.delPkts,
		HorizonTS:       s.horizon,
	}
}

// HorizonTS returns the newest timestamp retention has deleted (0 when
// nothing was ever deleted): the oldest instant the log can still answer
// completely is just after it.
func (s *Store) HorizonTS() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.horizon
}

// Scan walks every surviving block whose timestamp falls in
// [since, until], in log order, calling fn for each. Blocks alias one
// read buffer reused for the whole scan: a Block is valid only during its
// callback.
//
// A window read costs what the window holds, not what the log holds.
// Sealed segments wholly outside the window are skipped on their index
// bounds; the segment the window opens in is entered by its index footer,
// at the first block at or after since; every segment is left at the
// first block past until; and nothing is read but the blocks in between,
// streamed frame by frame.
//
// The store lock is held only to snapshot the segment set: overlapping
// segments are opened (an open fd survives a concurrent retention
// unlink) and the active segment's extent noted, then the walk
// — file reads and fn callbacks included — runs unlocked, so a long replay
// never stalls the append path, and blocks appended after the snapshot are
// not part of it.
func (s *Store) Scan(since, until uint64, fn func(Block) error) error {
	spans, err := s.openWindow(since, until)
	defer func() {
		for _, sp := range spans {
			sp.f.Close()
		}
	}()
	if err != nil {
		return err
	}
	fr := wire.NewFrameReader(nil, 0)
	for i := range spans {
		if err := spans[i].stream(fr, since, until, fn); err != nil {
			return err
		}
	}
	return nil
}

// segSpan is one segment's share of a window read: its file, opened while
// the segment was known to exist, and the extent of its data blocks worth
// reading. A sealed segment's extent is found from the file itself
// (locate), once the store lock is dropped.
type segSpan struct {
	f *os.File
	// size is a sealed segment's file size; 0 marks the active segment,
	// whose extent — first block at or after since, to the bytes written
	// when the snapshot was taken — is already in start and end.
	size int64
	// seek marks the sealed segment the window opens inside: it holds
	// blocks before since, to be skipped by its index footer. Timestamps
	// never decrease through a log, so there is at most one.
	seek       bool
	start, end int64
}

// openWindow opens, under the store lock, every segment whose timestamp
// bounds overlap [since, until]. On error the spans opened so far are
// returned for the caller to close.
func (s *Store) openWindow(since, until uint64) ([]segSpan, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var spans []segSpan
	for _, m := range s.sealed {
		if m.maxTS < since || m.minTS > until {
			continue
		}
		f, err := os.Open(filepath.Join(s.dir, m.name))
		if err != nil {
			return spans, fmt.Errorf("segstore: %w", err)
		}
		spans = append(spans, segSpan{f: f, size: m.size, seek: m.minTS < since})
	}
	if s.blocks > 0 && !s.closed && s.maxTS >= since && s.minTS <= until {
		f, err := os.Open(s.f.Name())
		if err != nil {
			return spans, fmt.Errorf("segstore: %w", err)
		}
		// maxTS >= since: the search lands on an entry.
		first := sort.Search(len(s.idx), func(i int) bool { return s.idx[i].TS >= since })
		spans = append(spans, segSpan{f: f, start: int64(s.idx[first].Offset), end: s.size})
	}
	return spans, nil
}

// locate finds a sealed segment's data extent: it checks the file's magic
// and trailer, ends the extent at the index footer and, in the segment the
// window opens inside, starts it at the first block the footer's directory
// lists at or after since.
func (sp *segSpan) locate(fr *wire.FrameReader, since uint64) error {
	name := filepath.Base(sp.f.Name())
	var magic [segHeaderLen]byte
	if _, err := sp.f.ReadAt(magic[:], 0); err != nil || string(magic[:]) != segMagic {
		return fmt.Errorf("segstore: %s: bad segment magic", name)
	}
	var trailer [trailerLen]byte
	if _, err := sp.f.ReadAt(trailer[:], sp.size-trailerLen); err != nil || string(trailer[8:]) != trailerMagic {
		return fmt.Errorf("segstore: %s: sealed segment lost its trailer", name)
	}
	footerOff := binary.LittleEndian.Uint64(trailer[:])
	if footerOff < segHeaderLen || footerOff >= uint64(sp.size-trailerLen) {
		return fmt.Errorf("segstore: %s: index footer offset %d outside file", name, footerOff)
	}
	sp.start, sp.end = segHeaderLen, int64(footerOff)
	if !sp.seek {
		return nil
	}
	fr.Reset(io.NewSectionReader(sp.f, sp.end, sp.size-trailerLen-sp.end))
	payload, err := fr.Next()
	if err != nil {
		return fmt.Errorf("segstore: %s: index footer: %w", name, err)
	}
	blk, err := blockOf(payload)
	if err != nil || blk.Kind != kindIndex {
		return fmt.Errorf("segstore: %s: sealed trailer points at no index block", name)
	}
	off, err := seekIndex(blk.Body, since)
	if err != nil {
		return fmt.Errorf("segstore: %s: %w", name, err)
	}
	if off < segHeaderLen || off >= footerOff {
		return fmt.Errorf("segstore: %s: index entry offset %d outside the data blocks", name, off)
	}
	sp.start = int64(off)
	return nil
}

// stream calls fn for the span's blocks inside [since, until], reading
// them one frame at a time through fr and stopping at the first block
// past until.
func (sp *segSpan) stream(fr *wire.FrameReader, since, until uint64, fn func(Block) error) error {
	if sp.size > 0 {
		if err := sp.locate(fr, since); err != nil {
			return err
		}
	}
	fr.Reset(io.NewSectionReader(sp.f, sp.start, sp.end-sp.start))
	for {
		payload, err := fr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("segstore: scanning %s: %w", filepath.Base(sp.f.Name()), err)
		}
		blk, err := blockOf(payload)
		if err != nil {
			return fmt.Errorf("segstore: scanning %s: %w", filepath.Base(sp.f.Name()), err)
		}
		if blk.TS > until {
			return nil
		}
		if blk.TS < since {
			continue
		}
		if err := fn(blk); err != nil {
			return err
		}
	}
}
