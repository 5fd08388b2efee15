package mtxio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/matrix"
)

// Binary matrix frames are the wire form of a dense float64 matrix: the job
// service sends submissions and R factors as frames when a request asks for
// FrameContentType, and falls back to JSON otherwise. A frame is one
// contiguous block of raw float64s behind a small header, so encoding and
// decoding cost a copy of the payload, not a decimal round trip per element.
//
// Layout (little endian):
//
//	magic "QRMX" | version u32 | rows u32 | cols u32 | metaLen u32
//	meta:  metaLen bytes of JSON (the job fields that travel with the matrix)
//	data:  rows·cols float64, row-major
//	crc:   u32 CRC-32C (Castagnoli) of every byte before it
//
// The metadata section is opaque to this package; the service layers agree
// on its fields (a submission's id/tile/tree/timeoutMS, a result's id).

// FrameContentType is the media type of a binary matrix frame.
const FrameContentType = "application/x-qr-matrix"

const (
	frameMagic     = "QRMX"
	frameVersion   = 1
	frameHeaderLen = 20
	frameCRCLen    = 4

	// maxFrameMeta bounds the metadata section.
	maxFrameMeta = 1 << 16
	// MaxBodyBytes caps the HTTP bodies the router reads (submissions,
	// relayed results, peer state), and so the Body of a submission the
	// job store journals.
	MaxBodyBytes = 256 << 20
	// MaxFrameElems bounds rows·cols: 2^25 float64s fill MaxBodyBytes.
	MaxFrameElems = MaxBodyBytes / 8
)

// ErrFrame wraps every malformed-frame error from this package.
var ErrFrame = errors.New("mtxio: malformed matrix frame")

func frameErr(msg string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrFrame, fmt.Sprintf(msg, args...))
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// FrameHeader is a validated frame's shape and metadata section.
type FrameHeader struct {
	Rows, Cols int
	Meta       []byte
}

// FrameLen is the encoded size of a frame with a metaLen-byte metadata
// section and a rows×cols payload.
func FrameLen(metaLen, rows, cols int) int64 {
	return frameHeaderLen + int64(metaLen) + 8*int64(rows)*int64(cols) + frameCRCLen
}

// IsFrame reports whether b starts with the frame magic. JSON bodies never
// do, so a stored request body can be labelled by sniffing it.
func IsFrame(b []byte) bool { return bytes.HasPrefix(b, []byte(frameMagic)) }

// IsFrameContentType reports whether a Content-Type header names a frame.
func IsFrameContentType(ct string) bool {
	media, _, _ := strings.Cut(ct, ";")
	return strings.EqualFold(strings.TrimSpace(media), FrameContentType)
}

// AcceptsFrame reports whether an Accept header lists FrameContentType
// with a non-zero quality. Wildcards do not select it: a caller gets
// frames only by naming them, so JSON stays the default.
func AcceptsFrame(accept string) bool {
	for _, rng := range strings.Split(accept, ",") {
		media, params, _ := strings.Cut(rng, ";")
		if !strings.EqualFold(strings.TrimSpace(media), FrameContentType) {
			continue
		}
		for _, p := range strings.Split(params, ";") {
			k, v, _ := strings.Cut(p, "=")
			if strings.EqualFold(strings.TrimSpace(k), "q") {
				if q, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil && q <= 0 {
					return false
				}
			}
		}
		return true
	}
	return false
}

// putHeader writes the fixed header into hdr (frameHeaderLen bytes).
func putHeader(hdr []byte, metaLen, rows, cols int) {
	copy(hdr, frameMagic)
	binary.LittleEndian.PutUint32(hdr[4:], frameVersion)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(rows))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(cols))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(metaLen))
}

// checkShape rejects a frame shape the encoder could never have written.
func checkShape(rows, cols, metaLen int) error {
	if rows < 1 || cols < 1 || uint64(rows)*uint64(cols) > MaxFrameElems {
		return frameErr("implausible shape %dx%d", rows, cols)
	}
	if metaLen > maxFrameMeta {
		return frameErr("metadata section of %d bytes exceeds %d", metaLen, maxFrameMeta)
	}
	return nil
}

// parseHeader validates the fixed header and returns the shape and
// metadata length it declares.
func parseHeader(hdr []byte) (rows, cols, metaLen int, err error) {
	if string(hdr[:4]) != frameMagic {
		return 0, 0, 0, frameErr("bad magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != frameVersion {
		return 0, 0, 0, frameErr("unsupported version %d", v)
	}
	rows = int(binary.LittleEndian.Uint32(hdr[8:]))
	cols = int(binary.LittleEndian.Uint32(hdr[12:]))
	metaLen = int(binary.LittleEndian.Uint32(hdr[16:]))
	return rows, cols, metaLen, checkShape(rows, cols, metaLen)
}

// AppendFrame appends the frame of the row-major rows×cols matrix data to
// dst. len(data) must be rows·cols.
func AppendFrame(dst, meta []byte, rows, cols int, data []float64) []byte {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mtxio: frame data length %d != %dx%d", len(data), rows, cols))
	}
	start := len(dst)
	n := int(FrameLen(len(meta), rows, cols))
	if cap(dst)-start < n {
		grown := make([]byte, start, start+n)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:start+n]
	out := dst[start:]
	putHeader(out, len(meta), rows, cols)
	copy(out[frameHeaderLen:], meta)
	putFloat64s(out[frameHeaderLen+len(meta):], data)
	crc := crc32.Checksum(out[:n-frameCRCLen], castagnoli)
	binary.LittleEndian.PutUint32(out[n-frameCRCLen:], crc)
	return dst
}

// WriteFrame streams the frame of m (any stride) to w through a small
// buffer; it never holds the encoded payload in memory.
func WriteFrame(w io.Writer, meta []byte, m *matrix.Matrix) error {
	if err := checkShape(m.Rows, m.Cols, len(meta)); err != nil {
		return err
	}
	cw := &CRCWriter{W: w}
	var hdr [frameHeaderLen]byte
	putHeader(hdr[:], len(meta), m.Rows, m.Cols)
	if _, err := cw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := cw.Write(meta); err != nil {
		return err
	}
	buf := make([]byte, min(chunkBytes, 8*m.Rows*m.Cols))
	if m.Stride == m.Cols {
		// Contiguous: whole-buffer chunks rather than one write per row.
		if err := WriteFloat64s(cw, m.Data[:m.Rows*m.Cols], buf); err != nil {
			return err
		}
	} else {
		for i := 0; i < m.Rows; i++ {
			if err := WriteFloat64s(cw, m.Row(i), buf); err != nil {
				return err
			}
		}
	}
	var sum [frameCRCLen]byte
	binary.LittleEndian.PutUint32(sum[:], cw.Sum)
	_, err := w.Write(sum[:])
	return err
}

// CRCWriter passes writes through to W and folds them into Sum, the
// CRC-32C (Castagnoli) that frames and the job store's WAL records end in.
type CRCWriter struct {
	W   io.Writer
	Sum uint32
}

func (c *CRCWriter) Write(p []byte) (int, error) {
	c.Sum = crc32.Update(c.Sum, castagnoli, p)
	return c.W.Write(p)
}

// CRCReader folds everything read from R into Sum, a CRC-32C.
type CRCReader struct {
	R   io.Reader
	Sum uint32
}

func (c *CRCReader) Read(p []byte) (int, error) {
	n, err := c.R.Read(p)
	c.Sum = crc32.Update(c.Sum, castagnoli, p[:n])
	return n, err
}

// ParseFrame validates a whole frame held in memory — magic, version,
// shape, exact length and checksum — without decoding its payload. The
// returned header's Meta aliases b.
func ParseFrame(b []byte) (FrameHeader, error) {
	if len(b) < frameHeaderLen+frameCRCLen {
		return FrameHeader{}, frameErr("truncated: %d bytes", len(b))
	}
	rows, cols, metaLen, err := parseHeader(b)
	if err != nil {
		return FrameHeader{}, err
	}
	if want := FrameLen(metaLen, rows, cols); int64(len(b)) != want {
		return FrameHeader{}, frameErr("length %d, %dx%d with %d-byte metadata needs %d", len(b), rows, cols, metaLen, want)
	}
	body := b[:len(b)-frameCRCLen]
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(b[len(body):]); got != want {
		return FrameHeader{}, frameErr("checksum %08x, frame says %08x", got, want)
	}
	return FrameHeader{Rows: rows, Cols: cols, Meta: b[frameHeaderLen : frameHeaderLen+metaLen]}, nil
}

// decodeFrame validates a frame held in memory and decodes its payload into
// a fresh matrix. Every check runs before the payload is allocated.
func decodeFrame(b []byte) (FrameHeader, *matrix.Matrix, error) {
	h, err := ParseFrame(b)
	if err != nil {
		return FrameHeader{}, nil, err
	}
	m := matrix.New(h.Rows, h.Cols)
	off := frameHeaderLen + len(h.Meta)
	getFloat64s(m.Data, b[off:off+8*len(m.Data)])
	return h, m, nil
}

// ReplaceFrameMeta returns a copy of the valid frame b with its metadata
// section replaced by meta and its checksum recomputed.
func ReplaceFrameMeta(b, meta []byte) ([]byte, error) {
	h, err := ParseFrame(b)
	if err != nil {
		return nil, err
	}
	if err := checkShape(h.Rows, h.Cols, len(meta)); err != nil {
		return nil, err
	}
	payload := b[frameHeaderLen+len(h.Meta) : len(b)-frameCRCLen]
	out := make([]byte, FrameLen(len(meta), h.Rows, h.Cols))
	putHeader(out, len(meta), h.Rows, h.Cols)
	n := copy(out[frameHeaderLen:], meta)
	copy(out[frameHeaderLen+n:], payload)
	binary.LittleEndian.PutUint32(out[len(out)-frameCRCLen:], crc32.Checksum(out[:len(out)-frameCRCLen], castagnoli))
	return out, nil
}

// ReadFrame decodes one frame from r into a single rows·cols allocation.
// size is the stream's declared length (an HTTP Content-Length), or -1
// when unknown. With a known size, the header, shape and length are
// checked before anything is allocated and the payload is decoded straight
// from the stream; the checksum is verified at the end, so on error the
// matrix is discarded. An unknown size is read whole, up to the largest
// legal frame, and decoded by decodeFrame.
func ReadFrame(r io.Reader, size int64) (FrameHeader, *matrix.Matrix, error) {
	if size < 0 {
		b, err := io.ReadAll(io.LimitReader(r, FrameLen(maxFrameMeta, MaxFrameElems, 1)+1))
		if err != nil {
			return FrameHeader{}, nil, err
		}
		return decodeFrame(b)
	}
	tr := &CRCReader{R: r}
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(tr, hdr[:]); err != nil {
		return FrameHeader{}, nil, readErr(err)
	}
	rows, cols, metaLen, err := parseHeader(hdr[:])
	if err != nil {
		return FrameHeader{}, nil, err
	}
	if want := FrameLen(metaLen, rows, cols); size != want {
		return FrameHeader{}, nil, frameErr("length %d, %dx%d with %d-byte metadata needs %d", size, rows, cols, metaLen, want)
	}
	h := FrameHeader{Rows: rows, Cols: cols, Meta: make([]byte, metaLen)}
	if _, err := io.ReadFull(tr, h.Meta); err != nil {
		return FrameHeader{}, nil, readErr(err)
	}
	m := matrix.New(rows, cols)
	if err := ReadFloat64s(tr, m.Data, make([]byte, min(chunkBytes, 8*len(m.Data)))); err != nil {
		return FrameHeader{}, nil, readErr(err)
	}
	var sum [frameCRCLen]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return FrameHeader{}, nil, readErr(err)
	}
	if got, want := tr.Sum, binary.LittleEndian.Uint32(sum[:]); got != want {
		return FrameHeader{}, nil, frameErr("checksum %08x, frame says %08x", got, want)
	}
	return h, m, nil
}

// readErr maps a short stream onto ErrFrame; other read errors (a broken
// connection) pass through.
func readErr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return frameErr("truncated")
	}
	return err
}

// chunkBytes is the buffer size of the streaming float64 helpers.
const chunkBytes = 32 << 10

// putFloat64s stores src into dst as little-endian float64s;
// len(dst) must be at least 8·len(src).
func putFloat64s(dst []byte, src []float64) {
	_ = dst[:8*len(src)]
	for i, v := range src {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
	}
}

// getFloat64s loads len(dst) little-endian float64s from src;
// len(src) must be at least 8·len(dst).
func getFloat64s(dst []float64, src []byte) {
	_ = src[:8*len(dst)]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// WriteFloat64s writes src to w as little-endian float64s, encoding
// through buf (at least 8 bytes) a chunk at a time.
func WriteFloat64s(w io.Writer, src []float64, buf []byte) error {
	per := len(buf) / 8
	for len(src) > 0 {
		n := min(per, len(src))
		putFloat64s(buf, src[:n])
		if _, err := w.Write(buf[:8*n]); err != nil {
			return err
		}
		src = src[n:]
	}
	return nil
}

// ReadFloat64s fills dst with little-endian float64s read from r through
// buf (at least 8 bytes). A short stream is io.ErrUnexpectedEOF (io.EOF
// when nothing at all was read).
func ReadFloat64s(r io.Reader, dst []float64, buf []byte) error {
	per := len(buf) / 8
	for len(dst) > 0 {
		n := min(per, len(dst))
		if _, err := io.ReadFull(r, buf[:8*n]); err != nil {
			return err
		}
		getFloat64s(dst[:n], buf)
		dst = dst[n:]
	}
	return nil
}
