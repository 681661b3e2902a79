package snapshot

import (
	"bytes"
	"errors"
	"testing"
)

// typed reports whether err wraps one of the package's structured
// failures — the only errors Open and Reader may ever return.
func typed(err error) bool {
	for _, e := range []error{ErrMagic, ErrVersion, ErrTruncated, ErrChecksum, ErrCorrupt} {
		if errors.Is(err, e) {
			return true
		}
	}
	return false
}

// FuzzOpen feeds arbitrary bytes to Open: every input either opens or
// fails with a typed error, never a panic. An opened image's header
// must agree with PeekHeader, and draining its payload through the
// Reader primitives must again end in nil or a typed error.
func FuzzOpen(f *testing.F) {
	w := NewWriter(64)
	w.Int(4)
	w.String("queens")
	w.Bool(true)
	w.U64s([]uint64{1, 2, 3})
	sealed := Seal(w.Bytes(), 0xfeed, 24_000)
	f.Add(sealed)
	f.Add(sealed[:headerLen])
	f.Add(sealed[:len(sealed)-1])
	f.Add([]byte("APRILIMG"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, img []byte) {
		hdr, r, err := Open(img)
		if err != nil {
			if !typed(err) {
				t.Fatalf("Open: untyped error %v", err)
			}
			return
		}
		peek, err := PeekHeader(img)
		if err != nil || peek != hdr {
			t.Fatalf("PeekHeader = %+v, %v; Open header %+v", peek, err, hdr)
		}
		if !bytes.Equal(Seal(img[headerLen:], hdr.ConfigHash, hdr.Cycle), img) {
			t.Fatal("resealing an opened image changed its bytes")
		}
		// Decode the payload as a stream of mixed primitives until the
		// reader fails or runs dry.
		for r.Err() == nil && r.Remaining() > 0 {
			switch r.U8() % 6 {
			case 0:
				r.Bool()
			case 1:
				_ = r.String()
			case 2:
				r.Ints("ints")
			case 3:
				r.U32s("u32s")
			case 4:
				r.U64s("u64s")
			case 5:
				r.CountAtMost("bounded", 8)
			}
		}
		if err := r.Err(); err != nil && !typed(err) {
			t.Fatalf("Reader: untyped error %v", err)
		}
	})
}
