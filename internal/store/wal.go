package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/mtxio"
)

// A WAL record is one walOp in binary form. The snapshot is a sequence of
// the same records (one full-record put per job), so open replays one
// format twice. Layout (little endian):
//
//	magic "QRWL" | version u32 | metaLen u32 | nData u32 | nR u32 | nBody u32
//	hcrc:  u32 CRC-32C of the 24 header bytes before it
//	meta:  metaLen bytes of JSON, the op with its bulk payloads taken out
//	data:  nData float64 (the put record's input Data)
//	r:     nR float64 (the R factor of a put record's or a result op's Result)
//	body:  nBody bytes (the put record's opaque Body)
//	crc:   u32 CRC-32C of every byte before it
//
// The header carries its own checksum so that its lengths are trusted
// before the record's end is reached. The payload sections are raw bits:
// NaN payloads, signed zeros and subnormals survive bit for bit.
const (
	recordMagic     = "QRWL"
	recordVersion   = 1
	recordCRCLen    = 4
	recordFieldsLen = 24
	recordHeaderLen = recordFieldsLen + recordCRCLen

	// maxRecordMeta bounds a record's metadata section.
	maxRecordMeta = 16 << 20
	// recordChunk is the size of the buffer the float64 sections are
	// encoded and decoded through.
	recordChunk = 32 << 10
)

// errCorrupt wraps every record that can not be a torn tail.
var errCorrupt = errors.New("store: corrupt wal record")

func corruptErr(msg string, args ...any) error {
	return fmt.Errorf("%w: %s", errCorrupt, fmt.Sprintf(msg, args...))
}

// recordHeader is a record's decoded fixed header.
type recordHeader struct {
	metaLen, nData, nR, nBody int
}

// size is the encoded length of the whole record.
func (h recordHeader) size() int64 {
	return recordHeaderLen + int64(h.metaLen) + 8*int64(h.nData+h.nR) + int64(h.nBody) + recordCRCLen
}

// check rejects section lengths over their caps: the encoder never writes
// them and the decoder never allocates for them.
func (h recordHeader) check() error {
	if h.metaLen > maxRecordMeta {
		return fmt.Errorf("metadata section of %d bytes exceeds %d", h.metaLen, maxRecordMeta)
	}
	if h.nData > mtxio.MaxFrameElems || h.nR > mtxio.MaxFrameElems {
		return fmt.Errorf("%d input and %d R floats exceed %d", h.nData, h.nR, mtxio.MaxFrameElems)
	}
	if h.nBody > mtxio.MaxBodyBytes {
		return fmt.Errorf("body of %d bytes exceeds %d", h.nBody, mtxio.MaxBodyBytes)
	}
	return nil
}

// put writes the header's fields, not its checksum, to b.
func (h recordHeader) put(b []byte) {
	copy(b, recordMagic)
	binary.LittleEndian.PutUint32(b[4:], recordVersion)
	binary.LittleEndian.PutUint32(b[8:], uint32(h.metaLen))
	binary.LittleEndian.PutUint32(b[12:], uint32(h.nData))
	binary.LittleEndian.PutUint32(b[16:], uint32(h.nR))
	binary.LittleEndian.PutUint32(b[20:], uint32(h.nBody))
}

// parseRecordHeader decodes a whole header whose fields checksum to sum.
func parseRecordHeader(b []byte, sum uint32) (recordHeader, error) {
	if string(b[:4]) != recordMagic {
		return recordHeader{}, corruptErr("bad magic %q", b[:4])
	}
	if binary.LittleEndian.Uint32(b[recordFieldsLen:]) != sum {
		return recordHeader{}, corruptErr("header checksum mismatch")
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != recordVersion {
		return recordHeader{}, corruptErr("unsupported version %d", v)
	}
	h := recordHeader{
		metaLen: int(binary.LittleEndian.Uint32(b[8:])),
		nData:   int(binary.LittleEndian.Uint32(b[12:])),
		nR:      int(binary.LittleEndian.Uint32(b[16:])),
		nBody:   int(binary.LittleEndian.Uint32(b[20:])),
	}
	if err := h.check(); err != nil {
		return recordHeader{}, corruptErr("%v", err)
	}
	return h, nil
}

// split returns op without its bulk payloads — the record's metadata — and
// the payloads themselves. op's own record and result are not modified.
func (op walOp) split() (meta walOp, data, r []float64, body []byte) {
	if op.Rec != nil {
		rec := *op.Rec
		data, body = rec.Data, rec.Body
		rec.Data, rec.Body = nil, nil
		if rec.Result != nil {
			res := *rec.Result
			r, res.Data = res.Data, nil
			rec.Result = &res
		}
		op.Rec = &rec
	}
	if op.Res != nil {
		res := *op.Res
		r, res.Data = res.Data, nil
		op.Res = &res
	}
	return op, data, r, body
}

// join reattaches decoded payloads to the op their record's metadata
// describes.
func (op *walOp) join(data, r []float64, body []byte) error {
	if len(data) > 0 || len(body) > 0 {
		if op.Rec == nil {
			return corruptErr("%q op carries a put payload", op.Op)
		}
		op.Rec.Data, op.Rec.Body = data, body
	}
	if len(r) > 0 {
		switch {
		case op.Rec != nil && op.Rec.Result != nil:
			op.Rec.Result.Data = r
		case op.Res != nil:
			op.Res.Data = r
		default:
			return corruptErr("%q op carries R without a result", op.Op)
		}
	}
	return nil
}

// recordEncoder writes records through buffers it reuses across calls.
type recordEncoder struct {
	meta    bytes.Buffer
	metaEnc *json.Encoder
	chunk   []byte
}

func newRecordEncoder() *recordEncoder {
	e := &recordEncoder{chunk: make([]byte, recordChunk)}
	e.metaEnc = json.NewEncoder(&e.meta)
	return e
}

// encode writes op as one record to w. Write errors are sticky in a
// bufio.Writer, so the caller's Flush reports any this one returns.
func (e *recordEncoder) encode(w *bufio.Writer, op walOp) error {
	meta, data, r, body := op.split()
	e.meta.Reset()
	if err := e.metaEnc.Encode(&meta); err != nil {
		return fmt.Errorf("store: encode wal op: %w", err)
	}
	h := recordHeader{metaLen: e.meta.Len(), nData: len(data), nR: len(r), nBody: len(body)}
	if err := h.check(); err != nil {
		return fmt.Errorf("store: %s record too large: %w", op.Op, err)
	}
	cw := &mtxio.CRCWriter{W: w}
	var hdr [recordHeaderLen]byte
	h.put(hdr[:])
	cw.Write(hdr[:recordFieldsLen])
	binary.LittleEndian.PutUint32(hdr[recordFieldsLen:], cw.Sum)
	cw.Write(hdr[recordFieldsLen:])
	cw.Write(e.meta.Bytes())
	mtxio.WriteFloat64s(cw, data, e.chunk)
	mtxio.WriteFloat64s(cw, r, e.chunk)
	cw.Write(body)
	var sum [recordCRCLen]byte
	binary.LittleEndian.PutUint32(sum[:], cw.Sum)
	_, err := w.Write(sum[:])
	return err
}

// decodeWAL replays a stream of size bytes of records from r in order,
// invoking apply for every intact one. It returns how many records it
// applied and how many trailing bytes it discarded as a torn tail.
//
// A record cut short by the end of the stream, or a final record whose
// checksum fails, is the expected artifact of a crash mid-append: the
// mutation it described was never acknowledged, so it is discarded. Bad
// magic, a whole header whose own checksum fails, impossible lengths, or
// a failed checksum with bytes after it are corruption, because skipping
// a record would shadow every later op on the same job. Only a header
// that checks out is trusted to say that a record runs past the end of
// the stream: a damaged length in a middle record is never taken for a
// torn tail. Section lengths are checked against their caps and against
// the bytes left in the stream before anything is allocated.
func decodeWAL(r io.Reader, size int64, apply func(walOp)) (replayed int, torn int64, err error) {
	var hdr [recordHeaderLen]byte
	var meta, chunk []byte
	for off := int64(0); off < size; {
		rest := size - off
		if rest < recordHeaderLen {
			if _, err := io.ReadFull(r, hdr[:rest]); err != nil {
				return replayed, 0, fmt.Errorf("store: read wal: %w", err)
			}
			if n := min(int(rest), len(recordMagic)); string(hdr[:n]) != recordMagic[:n] {
				return replayed, 0, corruptErr("bad magic %q at offset %d", hdr[:n], off)
			}
			return replayed, rest, nil
		}
		cr := &mtxio.CRCReader{R: r}
		_, err := io.ReadFull(cr, hdr[:recordFieldsLen])
		hsum := cr.Sum
		if err == nil {
			_, err = io.ReadFull(cr, hdr[recordFieldsLen:])
		}
		if err != nil {
			return replayed, 0, fmt.Errorf("store: read wal: %w", err)
		}
		h, err := parseRecordHeader(hdr[:], hsum)
		if err != nil {
			return replayed, 0, fmt.Errorf("%w (offset %d)", err, off)
		}
		if h.size() > rest {
			return replayed, rest, nil
		}
		if cap(meta) < h.metaLen {
			meta = make([]byte, h.metaLen)
		}
		meta = meta[:h.metaLen]
		if n := min(8*max(h.nData, h.nR), recordChunk); n > len(chunk) {
			chunk = make([]byte, n)
		}
		var data, res []float64
		if h.nData > 0 {
			data = make([]float64, h.nData)
		}
		if h.nR > 0 {
			res = make([]float64, h.nR)
		}
		var body []byte
		if h.nBody > 0 {
			body = make([]byte, h.nBody)
		}
		var sum [recordCRCLen]byte
		err = readRecord(cr, meta, data, res, body, chunk)
		if err == nil {
			_, err = io.ReadFull(r, sum[:])
		}
		if err != nil {
			return replayed, 0, fmt.Errorf("store: read wal: %w", err)
		}
		off += h.size()
		if cr.Sum != binary.LittleEndian.Uint32(sum[:]) {
			if off == size {
				return replayed, h.size(), nil
			}
			return replayed, 0, corruptErr("checksum mismatch in the record ending at offset %d of %d", off, size)
		}
		var op walOp
		if err := json.Unmarshal(meta, &op); err != nil {
			return replayed, 0, corruptErr("metadata: %v", err)
		}
		if err := op.join(data, res, body); err != nil {
			return replayed, 0, err
		}
		apply(op)
		replayed++
	}
	return replayed, 0, nil
}

// readRecord fills a record's sections from r.
func readRecord(r io.Reader, meta []byte, data, res []float64, body, chunk []byte) error {
	if _, err := io.ReadFull(r, meta); err != nil {
		return err
	}
	if err := mtxio.ReadFloat64s(r, data, chunk); err != nil {
		return err
	}
	if err := mtxio.ReadFloat64s(r, res, chunk); err != nil {
		return err
	}
	_, err := io.ReadFull(r, body)
	return err
}
