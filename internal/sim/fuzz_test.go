package sim_test

import (
	"errors"
	"testing"

	"april/internal/bench"
	"april/internal/cache"
	"april/internal/rts"
	"april/internal/sim"
	"april/internal/snapshot"
)

// typedImageError reports whether err wraps one of the image format's
// structured failures.
func typedImageError(err error) bool {
	for _, e := range []error{snapshot.ErrMagic, snapshot.ErrVersion, snapshot.ErrTruncated,
		snapshot.ErrChecksum, snapshot.ErrCorrupt} {
		if errors.Is(err, e) {
			return true
		}
	}
	return false
}

// FuzzRestore drives Restore with mutated machine images. The fuzzer
// mutates the payload and the header cycle, and the target reseals
// them, so the mutations reach the payload decoders instead of dying
// at the checksum. Every input must either fail with a typed image
// error or restore a machine that then runs a short window — an
// error from the run is fine, a panic anywhere is not.
func FuzzRestore(f *testing.F) {
	m := snapMachine(f, bench.FibSource(6), sim.Config{
		Nodes:       4,
		Profile:     rts.APRIL,
		MemoryBytes: 16 << 20,
		Alewife: &sim.AlewifeConfig{
			Cache: cache.Config{SizeBytes: 512, BlockBytes: 16, Assoc: 2},
		},
	})
	if _, err := m.RunWindow(400); err != nil {
		f.Fatal(err)
	}
	img, err := m.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	hdrLen := len(snapshot.Seal(nil, 0, 0))
	f.Add(img[hdrLen:], m.Now())

	f.Fuzz(func(t *testing.T, payload []byte, cycle uint64) {
		m, err := sim.Restore(snapshot.Seal(payload, 0, cycle), sim.RestoreOverrides{})
		if err != nil {
			if !typedImageError(err) {
				t.Fatalf("Restore: untyped error %v", err)
			}
			return
		}
		// A well-formed but corrupt machine may fail at run time; only
		// a panic is a bug.
		_, _ = m.RunWindow(64)
	})
}
