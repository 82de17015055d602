package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// WALScanner is the one WAL decoder. A replica feeds it frames in
// arbitrary chunks (byte ranges of the primary's log pulled over HTTP);
// file replay (decodeFrames) runs it once over a complete file image.
// Feed appends received bytes; Next yields each batch as soon as its frame
// is complete, and (nil, nil) when the buffered bytes end mid-frame — the
// replication analogue of a torn tail, resolved by feeding more bytes
// rather than truncating.
//
// Unlike in file replay, a frame that is fully present but fails its
// checksum is NOT a tolerable crash artifact here: the primary serves
// WAL reads under the append lock, so a corrupt frame means the bytes
// were damaged in flight or the offsets have diverged. Next reports it
// as ErrCorruptFrame (sticky), and the caller recovers by full snapshot
// resync, never by applying a guess.
//
// A scanner always starts at byte 0 of a WAL file and therefore demands
// the mandatory header frame first. A header of another format is an
// error wrapping ErrWALFormat (sticky): a resync would fetch the same log.
// Generation exposes the header's snapshot generation once seen so the
// consumer can check it against the base snapshot it holds.
type WALScanner struct {
	buf    []byte
	gen    uint64
	hasGen bool
	err    error // sticky: ErrCorruptFrame or an ErrWALFormat
}

// ErrCorruptFrame reports a complete frame that failed validation
// (checksum, framing, or payload shape) in a replication stream.
var ErrCorruptFrame = errors.New("store: corrupt WAL frame in replication stream")

// maxWALFramePayload bounds a single frame's claimed payload length. A
// length prefix beyond it is treated as corruption immediately instead
// of waiting forever for bytes that will never arrive.
const maxWALFramePayload = 64 << 20

// NewWALScanner returns a scanner positioned at byte 0 of a WAL file.
func NewWALScanner() *WALScanner {
	return &WALScanner{}
}

// Feed appends received WAL bytes to the scan buffer.
func (sc *WALScanner) Feed(p []byte) {
	sc.buf = append(sc.buf, p...)
}

// Generation returns the stream's header generation — the Meta.Version
// of the snapshot this log extends — once the header frame has been
// scanned.
func (sc *WALScanner) Generation() (uint64, bool) {
	return sc.gen, sc.hasGen
}

// Next returns the next batch, (nil, nil) when more bytes are needed, or
// the scanner's sticky error: a corrupt stream cannot be resumed by
// feeding more bytes.
func (sc *WALScanner) Next() (*CommittedBatch, error) {
	for sc.err == nil {
		frame, st := scanOneFrame(sc.buf)
		if st == frameShort {
			return nil, nil
		}
		// A corrupt frame comes back as the zero frame, which decode refuses.
		var b *CommittedBatch
		if b, sc.err = sc.decode(frame); sc.err == nil {
			sc.buf = sc.buf[frame.end:]
			if b != nil {
				return b, nil
			}
		}
	}
	return nil, sc.err
}

// decode holds one intact frame to the log's grammar: exactly one header,
// first, then batch frames.
func (sc *WALScanner) decode(f rawFrame) (*CommittedBatch, error) {
	switch {
	case f.typ == frameHeader && !sc.hasGen:
		gen, format, err := decodeHeaderPayload(f.payload)
		if err != nil {
			return nil, ErrCorruptFrame
		}
		if format != walFormat {
			return nil, fmt.Errorf("%w %d, this build reads format %d", ErrWALFormat, format, walFormat)
		}
		sc.gen, sc.hasGen = gen, true
		return nil, nil
	case f.typ == frameBatch && sc.hasGen:
		b, err := decodeBatchPayload(f.payload)
		if err != nil {
			return nil, ErrCorruptFrame
		}
		return b, nil
	}
	return nil, ErrCorruptFrame
}

type frameStatus int

const (
	frameOK frameStatus = iota
	// frameShort: the buffer ends before the frame does — feed more.
	frameShort
	// frameCorrupt: a structurally complete frame failed validation.
	frameCorrupt
)

// scanOneFrame inspects the frame starting at buf[0], distinguishing
// "incomplete" (more bytes pending) from "corrupt" (complete but
// invalid) — the distinction file replay does not need, because a file
// image never grows.
func scanOneFrame(buf []byte) (rawFrame, frameStatus) {
	if len(buf) == 0 {
		return rawFrame{}, frameShort
	}
	plen, n := binary.Uvarint(buf[1:])
	if n == 0 {
		return rawFrame{}, frameShort
	}
	if n < 0 || plen > maxWALFramePayload {
		return rawFrame{}, frameCorrupt
	}
	payloadStart := 1 + n
	payloadEnd := payloadStart + int(plen)
	if payloadEnd+4 > len(buf) {
		return rawFrame{}, frameShort
	}
	payload := buf[payloadStart:payloadEnd]
	want := binary.LittleEndian.Uint32(buf[payloadEnd : payloadEnd+4])
	got := crc32.Update(crc32.Checksum(buf[:1], castagnoli), castagnoli, payload)
	if got != want {
		return rawFrame{}, frameCorrupt
	}
	return rawFrame{typ: buf[0], payload: payload, end: payloadEnd + 4}, frameOK
}
