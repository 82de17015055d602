package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// WAL file format 3: a sequence of self-checking frames,
//
//	frame   = type byte | uvarint len(payload) | payload | crc32c
//	crc32c  covers the type byte and the payload (little-endian uint32)
//
// with three frame types:
//
//	header (3) = uvarint generation | uvarint format
//	the mandatory FIRST frame, written with the first append: the
//	Meta.Version of the snapshot this log extends, and walFormat;
//	batch  (4) = uvarint version | uvarint growTo | uvarint nEdits |
//	             nEdits × (op byte | uvarint u | uvarint v)
//	a batch with no core-number list (Batch.HasCores false), to be repaired;
//	cores  (5) = the batch payload | uvarint nCores |
//	             nCores × (uvarint vertex gap | varint κ)
//	a batch with its list: each vertex is written as its distance past the
//	previous one minus one (the first as itself), so the list is strictly
//	ascending by construction.
//
// Every published batch is one frame, synced before its version is
// published. Format 2 is format 3 without the cores frame; its logs are
// still read, and a format-3 build appends only batch frames to one, so a
// log never mixes what its header does not name.
//
// A frame that fails its checksum or runs past the end of the file is a
// torn tail: everything from it onward is discarded and the file truncated
// there, so later appends continue from a clean boundary. A log whose
// intact header names a format this build does not read (format 1 wrote a
// batch and a commit frame per batch, under a header with no format field)
// is refused with ErrWALFormat, never read as torn: that would drop
// acknowledged batches.
//
// The header generation closes the snapshot-replacement crash window:
// SaveSnapshot renames the new snapshot into place and then deletes the
// WAL. A crash between the two, or a failed removal, leaves the previous
// lineage's log beside the new snapshot; Load sees its generation differ
// from the snapshot's version and discards the whole file.
const (
	frameHeader     byte = 3
	frameBatch      byte = 4
	frameBatchCores byte = 5
	walFormat            = 3
	oldestWALFormat      = 2
)

// ErrWALFormat reports a WAL whose header is intact but names a format
// this build does not read.
var ErrWALFormat = errors.New("WAL format")

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

// encodeBatchFrame encodes b at version: as a cores frame when it carries
// its list and cores is set (the log is of walFormat), else as a batch
// frame. b.Cores must be strictly ascending by vertex.
func encodeBatchFrame(version uint64, b *Batch, cores bool) []byte {
	cores = cores && b.HasCores
	payload := make([]byte, 0, 26+10*len(b.Edits)+6*len(b.Cores))
	payload = appendUvarint(payload, version)
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
	if !cores {
		return encodeFrame(frameBatch, payload)
	}
	payload = appendUvarint(payload, uint64(len(b.Cores)))
	next := uint32(0) // the smallest vertex the next entry may name
	for _, c := range b.Cores {
		payload = appendUvarint(payload, uint64(c.V-next))
		payload = binary.AppendVarint(payload, int64(c.Kappa))
		next = c.V + 1
	}
	return encodeFrame(frameBatchCores, payload)
}

// ascendingCores reports whether cores is strictly ascending by vertex, as
// the cores frame writes it.
func ascendingCores(cores []CoreChange) bool {
	for i := 1; i < len(cores); i++ {
		if cores[i].V <= cores[i-1].V {
			return false
		}
	}
	return true
}

func encodeHeaderFrame(generation uint64) []byte {
	return encodeFrame(frameHeader, appendUvarint(appendUvarint(nil, generation), walFormat))
}

// decodeFrames parses a WAL image: the mandatory header's generation and
// format, the batches, and the byte offset of the first torn or corrupt
// frame (== len(data) when the whole file is intact) so the caller can
// truncate the file there. hasHeader=false means the file does not begin
// with an intact header frame — it is torn at byte 0 — and nothing from it
// may be replayed. A torn tail is not an error; a header of a format this
// build does not read is (ErrWALFormat). WALScanner reads the image in
// place; a file image never grows, so the scanner's "more bytes needed" and
// corrupt verdicts both mean torn here, and the bytes it consumed are the
// good prefix.
func decodeFrames(data []byte) (gen, format uint64, hasHeader bool, batches []CommittedBatch, goodLen int, err error) {
	sc := &WALScanner{buf: data}
	for {
		b, err := sc.Next()
		if b == nil || err != nil {
			break
		}
		batches = append(batches, *b)
	}
	if errors.Is(sc.err, ErrWALFormat) {
		return 0, 0, false, nil, 0, sc.err
	}
	gen, hasHeader = sc.Generation()
	return gen, sc.format, hasHeader, batches, len(data) - len(sc.buf), nil
}

// rawFrame is one checksum-verified frame; end is the offset just past it,
// relative to the slice it was scanned from.
type rawFrame struct {
	typ     byte
	payload []byte
	end     int
}

// decodeBatchPayload decodes a batch frame's payload, or with cores set a
// cores frame's, whose decoded batch has HasCores set.
func decodeBatchPayload(payload []byte, cores bool) (*CommittedBatch, error) {
	r := &byteReader{data: payload}
	var head [3]uint64 // version, growTo, nEdits
	for i := range head {
		var err error
		if head[i], err = r.uvarint(); err != nil {
			return nil, err
		}
	}
	nEdits := head[2]
	// Each edit costs at least three bytes (op + two uvarints).
	if nEdits > uint64(len(payload))/3+1 {
		return nil, fmt.Errorf("store: batch claims %d edits in %d bytes", nEdits, len(payload))
	}
	b := &CommittedBatch{Version: head[0], Batch: Batch{GrowTo: int(head[1]), Edits: make([]BatchOp, 0, nEdits)}}
	for i := uint64(0); i < nEdits; i++ {
		op, errOp := r.ReadByte()
		u, errU := r.uvarint()
		v, errV := r.uvarint()
		if err := errors.Join(errOp, errU, errV); err != nil {
			return nil, err
		}
		if op != OpAdd && op != OpRemove {
			return nil, fmt.Errorf("store: unknown batch op %d", op)
		}
		b.Edits = append(b.Edits, BatchOp{Op: op, U: uint32(u), V: uint32(v)})
	}
	if cores {
		if err := decodeCores(r, &b.Batch); err != nil {
			return nil, err
		}
	}
	if r.pos != len(payload) {
		return nil, fmt.Errorf("store: %d trailing bytes in batch payload", len(payload)-r.pos)
	}
	return b, nil
}

// decodeCores reads a cores frame's list into b. Whether the list fits the
// graph (vertex count, degrees) is the installer's to check; here a vertex
// must fit 32 bits and a κ 32 signed bits.
func decodeCores(r *byteReader, b *Batch) error {
	n, err := r.uvarint()
	if err != nil {
		return err
	}
	// Each entry costs at least two bytes (two varints).
	if n > uint64(len(r.data)-r.pos)/2 {
		return fmt.Errorf("store: batch claims %d core numbers in %d bytes", n, len(r.data)-r.pos)
	}
	b.Cores, b.HasCores = make([]CoreChange, 0, n), true
	next := uint64(0)
	for i := uint64(0); i < n; i++ {
		gap, err := r.uvarint()
		if err != nil {
			return err
		}
		k, err := r.varint()
		if err != nil {
			return err
		}
		v := next + gap
		if gap > math.MaxUint32 || v > math.MaxUint32 || k < math.MinInt32 || k > math.MaxInt32 {
			return fmt.Errorf("store: core number %d of vertex %d out of range", k, v)
		}
		b.Cores = append(b.Cores, CoreChange{V: uint32(v), Kappa: int32(k)})
		next = v + 1
	}
	return nil
}

// decodeHeaderPayload reads a header frame's generation and format. A
// header with no format field is format 1's.
func decodeHeaderPayload(payload []byte) (gen, format uint64, err error) {
	r := &byteReader{data: payload}
	gen, err = r.uvarint()
	format = 1
	if err == nil && r.pos < len(payload) {
		format, err = r.uvarint()
	}
	if err == nil && r.pos != len(payload) {
		err = fmt.Errorf("store: %d trailing bytes in header payload", len(payload)-r.pos)
	}
	return gen, format, err
}
