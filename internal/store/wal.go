package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// WAL file format: a sequence of self-checking frames,
//
//	frame   = type byte | uvarint len(payload) | payload | crc32c
//	crc32c  covers the type byte and the payload (little-endian uint32)
//
// with three frame types:
//
//	batch  (1) = uvarint growTo | uvarint nEdits |
//	             nEdits × (op byte | uvarint u | uvarint v)
//	batch frames are appended and synced BEFORE the edits are applied;
//	commit (2) = uvarint version
//	commit frames are appended after the new graph version is published;
//	header (3) = uvarint generation
//	the mandatory FIRST frame of every WAL file, written with the first
//	append: the Meta.Version of the snapshot this log extends.
//
// Replay pairs each commit with the batch frame preceding it. A batch with
// no commit (crash or abort between append and publish) is dropped — it
// was never acknowledged. A frame that fails its checksum or runs past the
// end of the file is a torn tail: everything from it onward is discarded
// and the file truncated there, so later appends continue from a clean
// boundary.
//
// The header generation closes the snapshot-replacement crash window:
// SaveSnapshot makes the new snapshot durable (rename) and then deletes
// the WAL as a separate step. A crash between the two leaves a fresh
// snapshot next to the previous lineage's log — whose batches must NOT be
// replayed onto the new graph. Load compares the header generation with
// the snapshot's version and discards the whole file on mismatch.

const (
	frameBatch  byte = 1
	frameCommit byte = 2
	frameHeader byte = 3
)

// appendUvarint appends v to buf in uvarint encoding.
func appendUvarint(buf []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(buf, tmp[:n]...)
}

// encodeFrame wraps a payload in the typed, length-prefixed, checksummed
// frame format.
func encodeFrame(typ byte, payload []byte) []byte {
	frame := make([]byte, 0, 1+binary.MaxVarintLen64+len(payload)+4)
	frame = append(frame, typ)
	frame = appendUvarint(frame, uint64(len(payload)))
	frame = append(frame, payload...)
	crc := crc32.Update(crc32.Checksum([]byte{typ}, castagnoli), castagnoli, payload)
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc)
	return append(frame, tail[:]...)
}

func encodeBatchFrame(b *Batch) []byte {
	payload := make([]byte, 0, 16+10*len(b.Edits))
	growTo := b.GrowTo
	if growTo < 0 {
		growTo = 0
	}
	payload = appendUvarint(payload, uint64(growTo))
	payload = appendUvarint(payload, uint64(len(b.Edits)))
	for _, ed := range b.Edits {
		payload = append(payload, ed.Op)
		payload = appendUvarint(payload, uint64(ed.U))
		payload = appendUvarint(payload, uint64(ed.V))
	}
	return encodeFrame(frameBatch, payload)
}

func encodeCommitFrame(version uint64) []byte {
	return encodeFrame(frameCommit, appendUvarint(nil, version))
}

func encodeHeaderFrame(generation uint64) []byte {
	return encodeFrame(frameHeader, appendUvarint(nil, generation))
}

// decodeFrames parses a WAL image: the mandatory header generation, the
// committed batches, and the byte offset of the first torn or corrupt
// frame (== len(data) when the whole file is intact) so the caller can
// truncate the file there. hasHeader=false means the file does not begin
// with an intact header frame — it is torn at byte 0 or predates the
// current snapshot — and nothing from it may be replayed. A torn tail is
// not an error: it is the expected shape of a crash mid-append. Frames
// are read by scanOneFrame, the replication stream's parser; a file image
// never grows, so its short and corrupt verdicts both mean torn here.
func decodeFrames(data []byte) (gen uint64, hasHeader bool, batches []CommittedBatch, goodLen int) {
	h, st := scanOneFrame(data)
	if st != frameOK || h.typ != frameHeader {
		return 0, false, nil, 0
	}
	gen, err := decodeUvarintPayload(h.payload)
	if err != nil {
		return 0, false, nil, 0
	}
	pos := h.end

	var pending *Batch
	for pos < len(data) {
		b, st := scanOneFrame(data[pos:])
		if st != frameOK {
			return gen, true, batches, pos
		}
		switch b.typ {
		case frameBatch:
			batch, err := decodeBatchPayload(b.payload)
			if err != nil {
				return gen, true, batches, pos // checksummed but malformed: treat as torn
			}
			// An earlier pending batch had no commit: aborted or never
			// acknowledged, drop it.
			pending = batch
		case frameCommit:
			version, err := decodeUvarintPayload(b.payload)
			if err != nil || pending == nil {
				return gen, true, batches, pos
			}
			batches = append(batches, CommittedBatch{Batch: *pending, Version: version})
			pending = nil
		default:
			return gen, true, batches, pos
		}
		pos += b.end
	}
	return gen, true, batches, len(data)
}

// rawFrame is one checksum-verified frame; end is the offset just past it,
// relative to the slice it was scanned from.
type rawFrame struct {
	typ     byte
	payload []byte
	end     int
}

func decodeBatchPayload(payload []byte) (*Batch, error) {
	r := &byteReader{data: payload}
	growTo, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	nEdits, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	// Each edit costs at least three bytes (op + two uvarints).
	if nEdits > uint64(len(payload))/3+1 {
		return nil, fmt.Errorf("store: batch claims %d edits in %d bytes", nEdits, len(payload))
	}
	b := &Batch{GrowTo: int(growTo), Edits: make([]BatchOp, 0, nEdits)}
	for i := uint64(0); i < nEdits; i++ {
		op, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		if op != OpAdd && op != OpRemove {
			return nil, fmt.Errorf("store: unknown batch op %d", op)
		}
		u, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		v, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		b.Edits = append(b.Edits, BatchOp{Op: op, U: uint32(u), V: uint32(v)})
	}
	if r.pos != len(payload) {
		return nil, fmt.Errorf("store: %d trailing bytes in batch payload", len(payload)-r.pos)
	}
	return b, nil
}

// decodeUvarintPayload reads the single-uvarint payload shared by commit
// (version) and header (generation) frames.
func decodeUvarintPayload(payload []byte) (uint64, error) {
	r := &byteReader{data: payload}
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if r.pos != len(payload) {
		return 0, fmt.Errorf("store: %d trailing bytes in frame payload", len(payload)-r.pos)
	}
	return v, nil
}
