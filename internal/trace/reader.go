package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"civect/internal/core"
)

// maxBlock bounds a block payload length a Reader will accept. Real
// writers flush around blockTarget, so anything wildly above it means a
// corrupt length field — better a clean error than a giant allocation.
const maxBlock = 16 << 20

// Reader decodes a journal written by Recorder. It validates the
// header and every block CRC as it streams, and checks the trailer's
// event count and last cycle against what it decoded, so a journal
// that reads to a clean io.EOF is known intact end to end.
type Reader struct {
	br       *bufio.Reader
	level    Level
	meta     Meta
	windowed bool

	payload []byte
	pos     int
	block   int // blocks consumed, for error messages

	// Decoder state mirroring the Recorder.
	curCycle      uint64
	prevRenameSeq uint64
	prevIssueSeq  uint64
	prevCommitSeq uint64

	events    uint64
	lastCycle uint64
	done      bool
	err       error
}

// teeByteReader feeds binary.ReadUvarint while capturing the consumed
// bytes for CRC verification.
type teeByteReader struct {
	br  *bufio.Reader
	buf *[]byte
}

func (t teeByteReader) ReadByte() (byte, error) {
	b, err := t.br.ReadByte()
	if err == nil {
		*t.buf = append(*t.buf, b)
	}
	return b, err
}

// NewReader parses and verifies the journal header from rd and returns
// a Reader positioned at the first event.
func NewReader(rd io.Reader) (*Reader, error) {
	br := bufio.NewReader(rd)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: missing magic", ErrTruncated)
	}
	if magic != Magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, magic[:])
	}
	hb := make([]byte, 0, 32)
	tee := teeByteReader{br: br, buf: &hb}
	for range 4 { // version, level, mode, flags
		if _, err := tee.ReadByte(); err != nil {
			return nil, fmt.Errorf("%w: header", ErrTruncated)
		}
	}
	wlen, err := binary.ReadUvarint(tee)
	if err != nil {
		return nil, fmt.Errorf("%w: header", ErrTruncated)
	}
	if wlen > 1024 {
		return nil, fmt.Errorf("%w: workload name length %d", ErrCorrupt, wlen)
	}
	wl := make([]byte, wlen)
	if _, err := io.ReadFull(br, wl); err != nil {
		return nil, fmt.Errorf("%w: header", ErrTruncated)
	}
	hb = append(hb, wl...)
	var crc [4]byte
	if _, err := io.ReadFull(br, crc[:]); err != nil {
		return nil, fmt.Errorf("%w: header CRC", ErrTruncated)
	}
	if binary.LittleEndian.Uint32(crc[:]) != crc32.ChecksumIEEE(hb) {
		return nil, fmt.Errorf("%w: header CRC mismatch", ErrCorrupt)
	}
	if hb[0] != Version {
		return nil, fmt.Errorf("trace: unsupported journal version %d (reader knows %d)", hb[0], Version)
	}
	level := Level(hb[1])
	if level < LevelCommits || level > LevelFull {
		return nil, fmt.Errorf("%w: invalid level %d", ErrCorrupt, hb[1])
	}
	mode := core.Mode(hb[2])
	if mode < core.ModeScalar || mode > core.ModeVect {
		return nil, fmt.Errorf("%w: invalid mode %d", ErrCorrupt, hb[2])
	}
	return &Reader{
		br:       br,
		level:    level,
		meta:     Meta{Workload: string(wl), Mode: mode},
		windowed: hb[3]&headerFlagWindowed != 0,
	}, nil
}

// Meta returns the journal's header metadata.
func (r *Reader) Meta() Meta { return r.meta }

// Level returns the level the journal was recorded at.
func (r *Reader) Level() Level { return r.level }

// Windowed reports whether the journal was recorded under a cycle
// window (Recorder.SetWindow), which relaxes replay's checks.
func (r *Reader) Windowed() bool { return r.windowed }

// Next returns the next event. It returns io.EOF after the trailer has
// been read and verified; any other error means a damaged or truncated
// journal (wrapping ErrCorrupt or ErrTruncated).
func (r *Reader) Next() (Event, error) {
	for {
		if r.err != nil {
			return Event{}, r.err
		}
		if r.done {
			return Event{}, io.EOF
		}
		if r.pos >= len(r.payload) {
			if err := r.nextBlock(); err != nil {
				if err != io.EOF {
					r.err = err
				}
				return Event{}, err
			}
			continue
		}
		kind := Kind(r.payload[r.pos])
		r.pos++
		ev, isEvent, err := r.record(kind)
		if err != nil {
			r.err = err
			return Event{}, err
		}
		if !isEvent {
			continue // cycle framing record
		}
		r.events++
		if ev.Cycle > r.lastCycle {
			r.lastCycle = ev.Cycle
		}
		return ev, nil
	}
}

// record decodes the body of one record of the given kind from the
// current block. Framing records return isEvent == false.
func (r *Reader) record(kind Kind) (ev Event, isEvent bool, err error) {
	switch kind {
	case KindCycle:
		d, err := r.uvarint()
		if err != nil {
			return Event{}, false, err
		}
		if d == 0 {
			return Event{}, false, fmt.Errorf("%w: zero cycle advance in block %d", ErrCorrupt, r.block)
		}
		r.curCycle += d
		return Event{}, false, nil
	case KindFetch:
		pc, err := r.uvarint()
		if err != nil {
			return Event{}, false, err
		}
		return Event{Kind: KindFetch, Cycle: r.curCycle, PC: int32(uint32(pc))}, true, nil
	case KindRename:
		d, err := r.uvarint()
		if err != nil {
			return Event{}, false, err
		}
		pc, err := r.uvarint()
		if err != nil {
			return Event{}, false, err
		}
		r.prevRenameSeq += d
		return Event{Kind: KindRename, Cycle: r.curCycle, Seq: r.prevRenameSeq, PC: int32(uint32(pc))}, true, nil
	case KindIssue:
		z, err := r.uvarint()
		if err != nil {
			return Event{}, false, err
		}
		pc, err := r.uvarint()
		if err != nil {
			return Event{}, false, err
		}
		d := int64(z>>1) ^ -int64(z&1)
		r.prevIssueSeq += uint64(d)
		return Event{Kind: KindIssue, Cycle: r.curCycle, Seq: r.prevIssueSeq, PC: int32(uint32(pc))}, true, nil
	case KindCommit:
		if r.pos >= len(r.payload) {
			return Event{}, false, fmt.Errorf("%w: commit record cut short in block %d", ErrCorrupt, r.block)
		}
		flags := r.payload[r.pos]
		r.pos++
		d, err := r.uvarint()
		if err != nil {
			return Event{}, false, err
		}
		pc, err := r.uvarint()
		if err != nil {
			return Event{}, false, err
		}
		r.prevCommitSeq += d
		return Event{
			Kind: KindCommit, Cycle: r.curCycle, Seq: r.prevCommitSeq,
			PC: int32(uint32(pc)), Reused: flags&1 != 0, Halt: flags&2 != 0,
		}, true, nil
	case KindSquash:
		keep, err := r.uvarint()
		if err != nil {
			return Event{}, false, err
		}
		n, err := r.uvarint()
		if err != nil {
			return Event{}, false, err
		}
		return Event{Kind: KindSquash, Cycle: r.curCycle, Seq: keep, N: n}, true, nil
	case KindJump:
		fd, err := r.uvarint()
		if err != nil {
			return Event{}, false, err
		}
		td, err := r.uvarint()
		if err != nil {
			return Event{}, false, err
		}
		from := r.curCycle + fd
		return Event{Kind: KindJump, Cycle: from, N: from + td}, true, nil
	}
	return Event{}, false, fmt.Errorf("%w: unknown record kind %d in block %d", ErrCorrupt, uint8(kind), r.block)
}

// uvarint decodes one varint from the current block payload.
func (r *Reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.payload[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: malformed varint in block %d", ErrCorrupt, r.block)
	}
	r.pos += n
	return v, nil
}

// nextBlock loads and CRC-verifies the next block, or parses the
// trailer and returns io.EOF.
func (r *Reader) nextBlock() error {
	n, err := binary.ReadUvarint(r.br)
	if err != nil {
		return fmt.Errorf("%w: journal ends without trailer", ErrTruncated)
	}
	if n == 0 {
		return r.trailer()
	}
	if n > maxBlock {
		return fmt.Errorf("%w: block %d length %d exceeds limit", ErrCorrupt, r.block, n)
	}
	// Read the bytes before sizing for the declared length, into the
	// last block's buffer: a forged length then costs no more memory
	// than the bytes that back it.
	buf := bytes.NewBuffer(r.payload[:0])
	if m, _ := io.CopyN(buf, r.br, int64(n)); m != int64(n) {
		return fmt.Errorf("%w: block %d cut short", ErrTruncated, r.block)
	}
	payload := buf.Bytes()
	var crc [4]byte
	if _, err := io.ReadFull(r.br, crc[:]); err != nil {
		return fmt.Errorf("%w: block %d CRC missing", ErrTruncated, r.block)
	}
	if binary.LittleEndian.Uint32(crc[:]) != crc32.ChecksumIEEE(payload) {
		return fmt.Errorf("%w: block %d CRC mismatch", ErrCorrupt, r.block)
	}
	r.payload, r.pos = payload, 0
	r.block++
	return nil
}

// trailer verifies the trailer (whose zero length-prefix nextBlock
// already consumed) and arms the io.EOF state.
func (r *Reader) trailer() error {
	tb := []byte{0}
	tee := teeByteReader{br: r.br, buf: &tb}
	events, err := binary.ReadUvarint(tee)
	if err != nil {
		return fmt.Errorf("%w: trailer", ErrTruncated)
	}
	lastCycle, err := binary.ReadUvarint(tee)
	if err != nil {
		return fmt.Errorf("%w: trailer", ErrTruncated)
	}
	var crc [4]byte
	if _, err := io.ReadFull(r.br, crc[:]); err != nil {
		return fmt.Errorf("%w: trailer CRC missing", ErrTruncated)
	}
	if binary.LittleEndian.Uint32(crc[:]) != crc32.ChecksumIEEE(tb) {
		return fmt.Errorf("%w: trailer CRC mismatch", ErrCorrupt)
	}
	if events != r.events {
		return fmt.Errorf("%w: trailer counts %d events, journal held %d", ErrCorrupt, events, r.events)
	}
	if lastCycle != r.lastCycle {
		return fmt.Errorf("%w: trailer last cycle %d, journal reached %d", ErrCorrupt, lastCycle, r.lastCycle)
	}
	r.done = true
	return io.EOF
}
