package tiled

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/matrix"
	"repro/internal/mtxio"
)

// Factorization persistence: a completed tiled QR (reflector tiles, block
// factors, journal metadata) serializes to a compact binary stream, so an
// expensive factorization can be computed once and reused for solves and Q
// applications across processes.
//
// Format (little endian):
//
//	magic "HQRF" | version u32 | M u32 | N u32 | B u32 | tree name (u32+bytes)
//	tile payload: Mt·Nt tiles in row-major order, each rows·cols float64
//	aux payload: for every journal op that owns storage (GEQRT/TSQRT/TTQRT),
//	             its T (and V2 for TTQRT) matrices in journal order
//
// The journal itself is reconstructed from (layout, tree), which fully
// determines it.

const (
	serializeMagic   = "HQRF"
	serializeVersion = 1
)

// ErrCorrupt is returned when a stream fails structural validation.
var ErrCorrupt = errors.New("tiled: corrupt factorization stream")

// Save writes the factorization to w.
func (f *Factorization) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(serializeMagic); err != nil {
		return err
	}
	hdr := []uint32{serializeVersion, uint32(f.A.M), uint32(f.A.N), uint32(f.A.B), uint32(len(f.Tree))}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString(f.Tree); err != nil {
		return err
	}
	buf := make([]byte, 4096)
	writeMat := func(m *matrix.Matrix) error {
		for i := 0; i < m.Rows; i++ {
			if err := mtxio.WriteFloat64s(bw, m.Row(i), buf); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < f.A.Mt; i++ {
		for j := 0; j < f.A.Nt; j++ {
			if err := writeMat(f.A.Tile(i, j)); err != nil {
				return err
			}
		}
	}
	for _, op := range f.Journal {
		switch op.Kind {
		case KindGEQRT:
			if err := writeMat(f.tGeqrt[[2]int{op.Row, op.K}]); err != nil {
				return err
			}
		case KindTSQRT:
			if err := writeMat(f.tElim[[2]int{op.Row, op.K}]); err != nil {
				return err
			}
		case KindTTQRT:
			if err := writeMat(f.tElim[[2]int{op.Row, op.K}]); err != nil {
				return err
			}
			if err := writeMat(f.v2[[2]int{op.Row, op.K}]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Load reads a factorization previously written by Save.
func Load(r io.Reader) (*Factorization, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if string(magic) != serializeMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, magic)
	}
	var version, m, n, b, treeLen uint32
	for _, p := range []*uint32{&version, &m, &n, &b, &treeLen} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	if version != serializeVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, version)
	}
	if m == 0 || n == 0 || b == 0 || m > 1<<26 || n > 1<<26 || b > 1<<16 || treeLen > 64 {
		return nil, fmt.Errorf("%w: implausible header (%d,%d,%d,%d)", ErrCorrupt, m, n, b, treeLen)
	}
	treeName := make([]byte, treeLen)
	if _, err := io.ReadFull(br, treeName); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	tree, err := TreeByName(string(treeName))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}

	l := NewLayout(int(m), int(n), int(b))
	f := NewFactorization(NewTiled(l), tree)
	buf := make([]byte, 4096)
	readMat := func(dst *matrix.Matrix) error {
		for i := 0; i < dst.Rows; i++ {
			if err := mtxio.ReadFloat64s(br, dst.Row(i), buf); err != nil {
				return fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
		}
		return nil
	}
	for i := 0; i < l.Mt; i++ {
		for j := 0; j < l.Nt; j++ {
			if err := readMat(f.A.Tile(i, j)); err != nil {
				return nil, err
			}
		}
	}
	for _, op := range f.Journal {
		switch op.Kind {
		case KindGEQRT:
			if err := readMat(f.tGeqrt[[2]int{op.Row, op.K}]); err != nil {
				return nil, err
			}
		case KindTSQRT:
			if err := readMat(f.tElim[[2]int{op.Row, op.K}]); err != nil {
				return nil, err
			}
		case KindTTQRT:
			if err := readMat(f.tElim[[2]int{op.Row, op.K}]); err != nil {
				return nil, err
			}
			if err := readMat(f.v2[[2]int{op.Row, op.K}]); err != nil {
				return nil, err
			}
		}
	}
	return f, nil
}
