package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	goruntime "runtime"
	"testing"

	"repro/internal/mtxio"
)

// walStream encodes ops as one binary record stream.
func walStream(t testing.TB, ops ...walOp) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	enc := newRecordEncoder()
	for _, op := range ops {
		if err := enc.encode(w, op); err != nil {
			t.Fatalf("encode %s: %v", op.Op, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return buf.Bytes()
}

// reseal rewrites the header checksum of the record starting at b[0], so a
// forged length reaches the decoder's length checks.
func reseal(b []byte) {
	cw := &mtxio.CRCWriter{W: io.Discard}
	cw.Write(b[:recordFieldsLen])
	binary.LittleEndian.PutUint32(b[recordFieldsLen:], cw.Sum)
}

// decodeCount runs the binary WAL decoder over raw bytes and returns
// (records applied, torn bytes, error).
func decodeCount(data []byte) (int, int64, error) {
	n := 0
	rep, torn, err := decodeWAL(bytes.NewReader(data), int64(len(data)), func(walOp) { n++ })
	if rep != n {
		panic("decodeWAL replay count disagrees with apply invocations")
	}
	return rep, torn, err
}

// allocated runs f and returns the bytes it allocated.
func allocated(f func()) uint64 {
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	f()
	goruntime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// fuzzOps is a small history with every payload section in use.
func fuzzOps() []walOp {
	in := &JobRecord{ID: "a", NumID: 1, Rows: 2, Cols: 2, Tile: 2, State: StateAccepted,
		Data: []float64{1, math.Copysign(0, -1), math.NaN(), 5e-324}}
	routed := &JobRecord{ID: "rt-1", NumID: 2, State: StateAccepted, Body: []byte("QRMX\x00\xff body")}
	return []walOp{
		{Op: "put", Rec: in},
		{Op: "state", ID: "a", To: StateRunning},
		{Op: "result", ID: "a", Res: &Result{Rows: 2, Cols: 2, Data: []float64{-2, 0.5, 0, math.Inf(1)}}},
		{Op: "put", Rec: routed},
		{Op: "del", ID: "rt-1"},
	}
}

// FuzzWALDecode drives the binary WAL decoder with arbitrary bytes and
// checks its recovery contract:
//
//  1. No input may panic the decoder (crash-written WALs hold anything),
//     and decoding is deterministic.
//  2. Every refusal is corruption (errCorrupt): the input is in memory, so
//     there is no read error to report.
//  3. Allocation stays within the bytes actually present plus 64 KiB: no
//     declared length, however large, allocates ahead of its bytes.
//  4. Truncating a cleanly-decodable stream anywhere — the crash model:
//     the tail of the file simply stops — must still decode cleanly and
//     replay no more records than the whole stream: a torn tail is
//     discarded, never promoted to corruption.
//
// The committed corpus also holds JSONL streams of the legacy format,
// which the binary decoder must refuse without panicking.
func FuzzWALDecode(f *testing.F) {
	clean := walStream(f, fuzzOps()...)
	second := len(walStream(f, fuzzOps()[0]))
	f.Add([]byte{})
	f.Add(clean)
	f.Add(clean[:len(clean)-7])                  // torn tail
	f.Add(clean[:len(clean)-2-len(recordMagic)]) // torn inside the final header
	corrupt := append([]byte(nil), clean...)
	corrupt[second+recordHeaderLen+3] ^= 0x20 // a middle record's metadata
	f.Add(corrupt)
	badMagic := append([]byte(nil), clean...)
	badMagic[second] ^= 0xff
	f.Add(badMagic)
	// Forged lengths, with the header checksum left stale (corruption) and
	// resealed (a cap violation, or an intact header running past the end
	// of the stream: a torn tail).
	for _, field := range []int{8, 12, 16, 20} {
		for _, n := range []uint32{math.MaxUint32, 1 << 20} {
			forged := append([]byte(nil), clean...)
			binary.LittleEndian.PutUint32(forged[second+field:], n)
			f.Add(forged)
			resealed := append([]byte(nil), forged...)
			reseal(resealed[second:])
			f.Add(resealed)
		}
	}
	const slack = 64 << 10
	f.Fuzz(func(t *testing.T, data []byte) {
		var rep int
		var torn int64
		var err error
		used := allocated(func() { rep, torn, err = decodeCount(data) })
		if used > uint64(len(data))+slack {
			t.Fatalf("decoding %d bytes allocated %d (err %v)", len(data), used, err)
		}
		rep2, torn2, err2 := decodeCount(data)
		if rep != rep2 || torn != torn2 || (err == nil) != (err2 == nil) {
			t.Fatalf("non-deterministic decode: (%d,%d,%v) then (%d,%d,%v)", rep, torn, err, rep2, torn2, err2)
		}
		if err != nil {
			if !errors.Is(err, errCorrupt) {
				t.Fatalf("refusal is not corruption: %v", err)
			}
			return
		}
		if torn < 0 || torn > int64(len(data)) {
			t.Fatalf("torn tail of %d bytes in a %d-byte stream", torn, len(data))
		}
		for _, k := range []int{len(data) / 3, len(data) / 2, len(data) - 1} {
			if k < 0 || k >= len(data) {
				continue
			}
			repK, _, errK := decodeCount(data[:k])
			if errK != nil {
				t.Fatalf("clean stream truncated at %d/%d failed: %v", k, len(data), errK)
			}
			if repK > rep {
				t.Fatalf("truncation at %d/%d grew the replay: %d > %d", k, len(data), repK, rep)
			}
		}
	})
}

// FuzzLegacyWALDecode drives the JSONL reader that migrates stores written
// by earlier builds, with the same contract as the binary decoder: no
// panic, deterministic, and truncating a clean stream anywhere still
// decodes cleanly. The replay may exceed the original count by at most
// one, because cutting a stream that itself ended in a torn fragment can
// complete that fragment into valid JSON (`{}x` truncates to `{}`).
func FuzzLegacyWALDecode(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("\n\n"))
	f.Add([]byte(`{"op":"put","rec":{"id":"a","state":"queued"}}` + "\n"))
	f.Add([]byte(`{"op":"put","rec":{"id":"a","state":"queued"}}` + "\n" +
		`{"op":"state","id":"a","to":"running"}` + "\n" +
		`{"op":"del","id":"a"}` + "\n"))
	// Torn tail: the final append died mid-line.
	f.Add([]byte(`{"op":"put","rec":{"id":"a","state":"queued"}}` + "\n" + `{"op":"sta`))
	// Corrupt middle: must be reported, not skipped.
	f.Add([]byte(`garbage` + "\n" + `{"op":"del","id":"a"}` + "\n"))
	count := func(data []byte) (int, error) {
		return decodeLegacyWAL(bytes.NewReader(data), func(walOp) {})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := count(data)
		rep2, err2 := count(data)
		if rep != rep2 || (err == nil) != (err2 == nil) {
			t.Fatalf("non-deterministic decode: (%d,%v) then (%d,%v)", rep, err, rep2, err2)
		}
		if err != nil {
			return
		}
		for _, k := range []int{len(data) / 3, len(data) / 2, len(data) - 1} {
			if k < 0 || k >= len(data) {
				continue
			}
			repK, errK := count(data[:k])
			if errK != nil {
				t.Fatalf("clean stream truncated at %d/%d failed: %v", k, len(data), errK)
			}
			if repK > rep+1 {
				t.Fatalf("truncation at %d/%d grew the replay: %d > %d+1", k, len(data), repK, rep)
			}
		}
	})
}
