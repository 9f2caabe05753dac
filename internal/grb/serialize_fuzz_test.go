package grb_test

import (
	"bytes"
	"encoding/gob"
	"errors"
	"runtime"
	"testing"

	"lagraph/internal/grb"
)

// allocBytes reads the cumulative heap allocation counter.
func allocBytes() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.TotalAlloc)
}

// hostileWire mirrors the package's matrixWire layout so the fuzzer can
// seed structurally-valid gob streams with lying contents. gob matches
// types by field names, so this encodes exactly what the decoder reads.
type hostileWire struct {
	Version      int
	NRows, NCols int
	Format       int
	Hyper        bool
	P, H, I      []int
	X            []int64
}

func gobBytes(t testing.TB, w hostileWire) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDeserializeMatrix is the corruption hunter for the wire decoder:
// arbitrary bytes must never panic, never allocate anywhere near a
// declared-but-absent size (the decoder is alloc-bounded against lying
// headers), and every rejection must wrap ErrCorrupt. Accepted inputs
// must behave like real matrices: consistent shape, and a serialize →
// deserialize round trip that reproduces the same serialized bytes.
func FuzzDeserializeMatrix(f *testing.F) {
	// Seeds: real serializations, sliced and lying variants.
	a, err := grb.NewMatrix[int64](3, 4)
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range [][3]int{{0, 1, 7}, {1, 3, -2}, {2, 0, 5}} {
		if err := a.SetElement(e[0], e[1], int64(e[2])); err != nil {
			f.Fatal(err)
		}
	}
	var valid bytes.Buffer
	if err := grb.SerializeMatrix(&valid, a); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()/2])
	f.Add([]byte("not gob"))
	f.Add([]byte{})
	// Declared-huge dimensions with nothing behind them.
	f.Add(gobBytes(f, hostileWire{Version: 1, NRows: 1 << 50, NCols: 1 << 50}))
	// Pointer array shorter than NRows+1.
	f.Add(gobBytes(f, hostileWire{Version: 1, NRows: 4, NCols: 4, P: []int{0, 1}, I: []int{0}, X: []int64{9}}))
	// Index/value length mismatch.
	f.Add(gobBytes(f, hostileWire{Version: 1, NRows: 2, NCols: 2, P: []int{0, 1, 2}, I: []int{0, 1}, X: []int64{5}}))
	// Out-of-range column index.
	f.Add(gobBytes(f, hostileWire{Version: 1, NRows: 2, NCols: 2, P: []int{0, 1, 1}, I: []int{9}, X: []int64{5}}))
	// Hyper flag with inconsistent H.
	f.Add(gobBytes(f, hostileWire{Version: 1, NRows: 8, NCols: 8, Hyper: true, P: []int{0, 1}, H: []int{3, 4}, I: []int{2}, X: []int64{1}}))
	// Future version.
	f.Add(gobBytes(f, hostileWire{Version: 99, NRows: 1, NCols: 1, P: []int{0, 0}}))
	// Negative dimensions.
	f.Add(gobBytes(f, hostileWire{Version: 1, NRows: -1, NCols: 4, P: []int{0}}))
	// Format-tagged seeds: one real serialization per storage format, so
	// the fuzzer mutates from every format's wire shape.
	for _, format := range []grb.Format{grb.FormatCSR, grb.FormatHyper} {
		b := a.Dup()
		b.SetFormat(format)
		var buf bytes.Buffer
		if err := grb.SerializeMatrix(&buf, b); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// Legacy tag 3 (the retired bitmap format) over a standard payload.
	f.Add(gobBytes(f, hostileWire{Version: 1, NRows: 2, NCols: 2, Format: 3, P: []int{0, 1, 1}, I: []int{1}, X: []int64{4}}))
	// Format outside the known enum.
	f.Add(gobBytes(f, hostileWire{Version: 1, NRows: 2, NCols: 2, Format: 99, P: []int{0, 0, 0}}))
	f.Add(gobBytes(f, hostileWire{Version: 1, NRows: 2, NCols: 2, Format: -1, P: []int{0, 0, 0}}))
	// Hyper payload lying about a standard format: restoring the claimed
	// format would expand to an NRows+1 pointer array.
	f.Add(gobBytes(f, hostileWire{Version: 1, NRows: 1 << 50, NCols: 4, Format: int(grb.FormatCSR), Hyper: true, P: []int{0}, H: []int{}}))
	f.Add(gobBytes(f, hostileWire{Version: 1, NRows: 1 << 50, NCols: 4, Format: 3, Hyper: true, P: []int{0}, H: []int{}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		before := allocBytes()
		m, err := grb.DeserializeMatrix[int64](bytes.NewReader(data))
		after := allocBytes()
		// A decode of a few KB of input must never balloon: the cap guards
		// both gob's internal growth and the decoder's own preallocation.
		if grew := after - before; grew > 512<<20 {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), grew)
		}
		if err != nil {
			if !errors.Is(err, grb.ErrCorrupt) {
				t.Fatalf("rejection does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		// Accepted: the matrix must be internally consistent and
		// re-serializable, and the re-serialized bytes must decode to the
		// same shape (round-trip stability).
		nr, nc, nv := m.Nrows(), m.Ncols(), m.Nvals()
		if nr < 0 || nc < 0 || nv < 0 || (nr > 0 && nc > 0 && nv > nr*nc) {
			t.Fatalf("accepted matrix has impossible shape %d×%d with %d values", nr, nc, nv)
		}
		var re bytes.Buffer
		if err := grb.SerializeMatrix(&re, m); err != nil {
			t.Fatalf("accepted matrix does not re-serialize: %v", err)
		}
		m2, err := grb.DeserializeMatrix[int64](bytes.NewReader(re.Bytes()))
		if err != nil {
			t.Fatalf("re-serialized matrix rejected: %v", err)
		}
		if m2.Nrows() != nr || m2.Ncols() != nc || m2.Nvals() != nv {
			t.Fatal("round trip changed the matrix shape")
		}
		var re2 bytes.Buffer
		if err := grb.SerializeMatrix(&re2, m2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re.Bytes(), re2.Bytes()) {
			t.Fatal("serialization is not a fixed point after one round trip")
		}
	})
}

// FuzzDeserializeVector is the vector-side twin.
func FuzzDeserializeVector(f *testing.F) {
	v, err := grb.NewVector[float64](5)
	if err != nil {
		f.Fatal(err)
	}
	if err := v.SetElement(2, 1.5); err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := grb.SerializeVector(&valid, v); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()/2])
	f.Add([]byte{})
	f.Add([]byte("garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		before := allocBytes()
		w, err := grb.DeserializeVector[float64](bytes.NewReader(data))
		after := allocBytes()
		if grew := after - before; grew > 512<<20 {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), grew)
		}
		if err != nil {
			if !errors.Is(err, grb.ErrCorrupt) {
				t.Fatalf("rejection does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		if w.Size() < 0 || w.Nvals() < 0 || w.Nvals() > w.Size() {
			t.Fatalf("accepted vector has impossible shape: size %d, %d values", w.Size(), w.Nvals())
		}
	})
}
