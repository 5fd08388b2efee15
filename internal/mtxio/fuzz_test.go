package mtxio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	goruntime "runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/matrix"
	"repro/internal/workload"
)

// declaredElements pre-parses the size line the same way Read will and
// returns the element count the input asks the reader to allocate, so the
// fuzz target can skip inputs that would legitimately allocate huge
// matrices (the fuzzer hunts crashes, not OOM kills).
func declaredElements(in string) int {
	for i, line := range strings.Split(in, "\n") {
		line = strings.TrimSpace(line)
		if i == 0 || line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return 0
		}
		rows, err1 := strconv.Atoi(f[0])
		cols, err2 := strconv.Atoi(f[1])
		if err1 != nil || err2 != nil || rows <= 0 || cols <= 0 {
			return 0
		}
		if rows > math.MaxInt/cols {
			return 0 // overflow: Read must reject this without allocating
		}
		return rows * cols
	}
	return 0
}

// FuzzRead exercises the parser against arbitrary input: it must never
// panic (the reader fronts user-supplied files in the CLI tools; a crafted
// size line used to overflow rows*cols into a negative make), and anything
// it accepts must round-trip through Write/Read with every element
// bit-identical.
func FuzzRead(f *testing.F) {
	f.Add("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 5\n")
	f.Add("%%MatrixMarket matrix array real symmetric\n2 2\n1\n5\n2\n")
	f.Add("%%MatrixMarket matrix array real general\n0 0\n")
	f.Add("")
	f.Add("%%MatrixMarket matrix array real general\n1 1\nNaN\n")
	f.Add("%%MatrixMarket matrix coordinate integer symmetric\n2 2 1\n2 1 7\n")
	// Regression: rows*cols overflows int; must be ErrFormat, not a panic.
	f.Add("%%MatrixMarket matrix array real general\n9999999999 9999999999\n")
	f.Fuzz(func(t *testing.T, in string) {
		if declaredElements(in) > 1<<20 {
			return
		}
		m, err := Read(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			t.Fatalf("accepted matrix failed to write: %v", err)
		}
		again, err := Read(&buf)
		if err != nil {
			t.Fatalf("own output rejected: %v", err)
		}
		if again.Rows != m.Rows || again.Cols != m.Cols {
			t.Fatalf("round-trip shape changed: %dx%d vs %dx%d", m.Rows, m.Cols, again.Rows, again.Cols)
		}
		for i := 0; i < m.Rows; i++ {
			for j := 0; j < m.Cols; j++ {
				a, b := m.At(i, j), again.At(i, j)
				if math.IsNaN(a) && math.IsNaN(b) {
					continue
				}
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("round trip changed (%d,%d): %v -> %v", i, j, a, b)
				}
			}
		}
	})
}

// impliedBytes is what a frame's header asks a decoder to allocate: the
// payload and metadata it declares (0 when there is no header to read).
func impliedBytes(b []byte) uint64 {
	if len(b) < frameHeaderLen {
		return 0
	}
	rows := uint64(binary.LittleEndian.Uint32(b[8:]))
	cols := uint64(binary.LittleEndian.Uint32(b[12:]))
	meta := uint64(binary.LittleEndian.Uint32(b[16:]))
	return 8*rows*cols + meta
}

// allocated runs f and returns the bytes it allocated.
func allocated(f func()) uint64 {
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	f()
	goruntime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// FuzzFrameDecode exercises the binary frame decoders against arbitrary
// input. They front every HTTP hop that carries a matrix, so they must
// never panic, must reject a bad header, shape, length or checksum before
// allocating the payload (allocation stays within what the header
// declares, and within a small constant when the frame is refused), must
// agree with each other, and anything they accept must re-encode to the
// identical bytes.
func FuzzFrameDecode(f *testing.F) {
	sub := workload.Uniform(3, 6, 5)
	submission := AppendFrame(nil, []byte(`{"id":"cl-1","tile":16,"tree":"flat-tt","timeoutMS":500}`), 6, 5, sub.Data)
	result := AppendFrame(nil, []byte(`{"id":"7"}`), 5, 5, workload.Uniform(4, 5, 5).Data)
	f.Add(submission)
	f.Add(result)
	f.Add(AppendFrame(nil, nil, 1, 1, []float64{math.NaN()}))
	f.Add(submission[:len(submission)/2])            // truncated
	f.Add(submission[:frameHeaderLen])               // header only
	f.Add(append(append([]byte(nil), result...), 0)) // trailing byte
	flipped := append([]byte(nil), result...)
	flipped[frameHeaderLen+12] ^= 0x10 // bit flip in the payload
	f.Add(flipped)
	huge := append([]byte(nil), result...)
	binary.LittleEndian.PutUint32(huge[8:], math.MaxUint32)
	binary.LittleEndian.PutUint32(huge[12:], math.MaxUint32) // huge shape
	f.Add(huge)
	wide := append([]byte(nil), result...)
	binary.LittleEndian.PutUint32(wide[12:], 1<<24) // plausible but absent payload
	f.Add(wide)
	f.Add([]byte(`{"rows":2,"cols":2,"data":[1,2,3,4]}`))
	const slack = 64 << 10
	f.Fuzz(func(t *testing.T, b []byte) {
		var h FrameHeader
		var m *matrix.Matrix
		var err error
		used := allocated(func() { h, m, err = decodeFrame(b) })
		if err != nil {
			if used > slack {
				t.Fatalf("rejected frame allocated %d bytes: %v", used, err)
			}
		} else if used > impliedBytes(b)+slack {
			t.Fatalf("accepted frame allocated %d bytes, header implies %d", used, impliedBytes(b))
		}
		var h2 FrameHeader
		var m2 *matrix.Matrix
		var err2 error
		used = allocated(func() { h2, m2, err2 = ReadFrame(bytes.NewReader(b), int64(len(b))) })
		if (err == nil) != (err2 == nil) {
			t.Fatalf("decodeFrame err %v, ReadFrame err %v", err, err2)
		}
		if used > impliedBytes(b)+slack {
			t.Fatalf("ReadFrame allocated %d bytes, header implies %d", used, impliedBytes(b))
		}
		if _, _, err3 := ReadFrame(bytes.NewReader(b), -1); (err == nil) != (err3 == nil) {
			t.Fatalf("decodeFrame err %v, unsized ReadFrame err %v", err, err3)
		}
		if err != nil {
			if !errors.Is(err, ErrFrame) || !errors.Is(err2, ErrFrame) {
				t.Fatalf("rejection is not ErrFrame: %v / %v", err, err2)
			}
			return
		}
		if !bytes.Equal(h.Meta, h2.Meta) || !bytes.Equal(
			AppendFrame(nil, h.Meta, h.Rows, h.Cols, m.Data),
			AppendFrame(nil, h2.Meta, h2.Rows, h2.Cols, m2.Data)) {
			t.Fatal("decoders disagree")
		}
		if again := AppendFrame(nil, h.Meta, h.Rows, h.Cols, m.Data); !bytes.Equal(again, b) {
			t.Fatal("accepted frame does not re-encode to the same bytes")
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, h.Meta, m); err != nil || !bytes.Equal(buf.Bytes(), b) {
			t.Fatalf("WriteFrame does not reproduce the accepted frame (err %v)", err)
		}
	})
}
