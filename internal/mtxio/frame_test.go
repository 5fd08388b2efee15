package mtxio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"

	"repro/internal/matrix"
	"repro/internal/workload"
)

// testFrame encodes a seeded rows×cols matrix with the given metadata.
func testFrame(meta string, rows, cols int) ([]byte, *matrix.Matrix) {
	m := workload.Uniform(7, rows, cols)
	return AppendFrame(nil, []byte(meta), rows, cols, m.Data), m
}

func sameBits(t *testing.T, got, want *matrix.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := 0; i < want.Rows; i++ {
		for j := 0; j < want.Cols; j++ {
			if math.Float64bits(got.At(i, j)) != math.Float64bits(want.At(i, j)) {
				t.Fatalf("(%d,%d) = %v, want %v", i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	meta := `{"id":"job-1","tile":16}`
	b, m := testFrame(meta, 37, 29)
	if int64(len(b)) != FrameLen(len(meta), 37, 29) {
		t.Fatalf("len %d, FrameLen %d", len(b), FrameLen(len(meta), 37, 29))
	}
	if !IsFrame(b) || IsFrame([]byte(`{"rows":1}`)) {
		t.Fatal("IsFrame does not tell a frame from JSON")
	}

	// Every decoder agrees, bit for bit.
	h, got, err := decodeFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(h.Meta) != meta || h.Rows != 37 || h.Cols != 29 {
		t.Fatalf("header %+v", h)
	}
	sameBits(t, got, m)
	for _, size := range []int64{int64(len(b)), -1} {
		h, got, err := ReadFrame(bytes.NewReader(b), size)
		if err != nil {
			t.Fatalf("ReadFrame(size %d): %v", size, err)
		}
		if string(h.Meta) != meta {
			t.Fatalf("ReadFrame(size %d) meta %q", size, h.Meta)
		}
		sameBits(t, got, m)
	}

	// The streaming encoder writes the same bytes, from a strided view too.
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte(meta), m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), b) {
		t.Fatal("WriteFrame and AppendFrame disagree")
	}
	big := workload.Uniform(8, 40, 31)
	view := big.SubMatrix(2, 1, 37, 29)
	view.CopyFrom(m)
	buf.Reset()
	if err := WriteFrame(&buf, []byte(meta), view); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), b) {
		t.Fatal("WriteFrame of a strided view differs")
	}

	// Replacing the metadata keeps the payload and re-checksums.
	nb, err := ReplaceFrameMeta(b, []byte(`{"id":"other"}`))
	if err != nil {
		t.Fatal(err)
	}
	h, got, err = decodeFrame(nb)
	if err != nil {
		t.Fatal(err)
	}
	if string(h.Meta) != `{"id":"other"}` {
		t.Fatalf("meta %q", h.Meta)
	}
	sameBits(t, got, m)
}

func TestFrameRejectsCorruption(t *testing.T) {
	b, _ := testFrame(`{"id":"x"}`, 8, 8)
	with := func(f func(c []byte) []byte) []byte { return f(append([]byte(nil), b...)) }
	put32 := func(off int, v uint32) []byte {
		return with(func(c []byte) []byte { binary.LittleEndian.PutUint32(c[off:], v); return c })
	}
	cases := map[string][]byte{
		"empty":       {},
		"short":       b[:10],
		"truncated":   b[:len(b)-9],
		"trailing":    append(append([]byte(nil), b...), 0),
		"badMagic":    with(func(c []byte) []byte { c[0] = 'X'; return c }),
		"badVersion":  put32(4, 2),
		"zeroRows":    put32(8, 0),
		"hugeShape":   put32(8, 1<<30),
		"shapeSwap":   put32(12, 9), // 8x9 declared, 8x8 sent
		"hugeMeta":    put32(16, maxFrameMeta+1),
		"bitFlip":     with(func(c []byte) []byte { c[40] ^= 1; return c }),
		"badChecksum": with(func(c []byte) []byte { c[len(c)-1] ^= 0x80; return c }),
	}
	for name, data := range cases {
		if _, _, err := decodeFrame(data); !errors.Is(err, ErrFrame) {
			t.Errorf("%s: decodeFrame err = %v, want ErrFrame", name, err)
		}
		for _, size := range []int64{int64(len(data)), -1} {
			if _, _, err := ReadFrame(bytes.NewReader(data), size); !errors.Is(err, ErrFrame) {
				t.Errorf("%s: ReadFrame(size %d) err = %v, want ErrFrame", name, size, err)
			}
		}
	}
	// A stream shorter than its declared length is truncated, not accepted.
	if _, _, err := ReadFrame(bytes.NewReader(b[:len(b)-20]), int64(len(b))); !errors.Is(err, ErrFrame) {
		t.Errorf("short stream: err = %v, want ErrFrame", err)
	}
	// Transport failures are not format errors.
	boom := errors.New("boom")
	if _, _, err := ReadFrame(io.MultiReader(bytes.NewReader(b[:30]), errReader{boom}), int64(len(b))); !errors.Is(err, boom) {
		t.Errorf("broken stream: err = %v, want the read error", err)
	}
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

func TestAcceptsFrame(t *testing.T) {
	for accept, want := range map[string]bool{
		"":                                      false,
		"*/*":                                   false,
		"application/json":                      false,
		FrameContentType:                        true,
		"application/X-QR-Matrix":               true,
		FrameContentType + ", application/json": true,
		"application/json, " + FrameContentType + ";q=0.5": true,
		FrameContentType + ";q=0":                          false,
		FrameContentType + "; q=0.0":                       false,
	} {
		if got := AcceptsFrame(accept); got != want {
			t.Errorf("AcceptsFrame(%q) = %v, want %v", accept, got, want)
		}
	}
	if !IsFrameContentType(FrameContentType+"; charset=binary") || IsFrameContentType("application/json") {
		t.Fatal("IsFrameContentType")
	}
}

func TestFloat64Helpers(t *testing.T) {
	src := []float64{0, math.Copysign(0, -1), 1.5, math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64, math.MaxFloat64}
	var buf bytes.Buffer
	if err := WriteFloat64s(&buf, src, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 8*len(src) {
		t.Fatalf("wrote %d bytes", buf.Len())
	}
	dst := make([]float64, len(src))
	if err := ReadFloat64s(&buf, dst, make([]byte, 24)); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if math.Float64bits(dst[i]) != math.Float64bits(src[i]) {
			t.Fatalf("[%d] = %v, want %v", i, dst[i], src[i])
		}
	}
	if err := ReadFloat64s(bytes.NewReader(make([]byte, 12)), dst[:2], make([]byte, 8)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short read err = %v", err)
	}
}
