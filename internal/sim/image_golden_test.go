package sim

// The checkpoint image format is a contract: images written by one
// build restore under the next. This pins the exact bytes of one
// mid-run image, taken at a cycle where the run loop's wake queue and
// every per-controller block table (outstanding misses, home
// transactions, first-use interlocks) hold entries, so a change to how
// any of them is stored cannot silently move the encoding.

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"april/internal/mult"
	"april/internal/rts"
)

// The hash was recorded from the build that kept the wake queue in a
// binary heap, the cache in per-set line slices and the controller
// tables in Go maps; the wheel, the flat cache and the block tables
// reproduce it byte for byte.
const (
	goldenImageCycle  = 24_000
	goldenImageSHA256 = "7d15bd6a7047c403b0644afa9ac0e25dff96578322d99b70ae77cc7a411e565c"
)

// goldenQueens is the six-queens program of the benchmark suite,
// inlined so the pinned image cannot move with the suite's sources.
const goldenQueens = `
(define board-size 6)
(define (safe? row dist placed)
  (cond ((null? placed) #t)
        ((= (car placed) row) #f)
        ((= (abs (- (car placed) row)) dist) #f)
        (else (safe? row (+ dist 1) (cdr placed)))))
(define (try-row placed len row)
  (cond ((> row board-size) 0)
        ((safe? row 1 placed)
         (+ (future (extend (cons row placed) (+ len 1)))
            (try-row placed len (+ row 1))))
        (else (try-row placed len (+ row 1)))))
(define (extend placed len)
  (if (= len board-size) 1 (try-row placed len 1)))
(extend '() 0)
`

func TestSnapshotGoldenImageHash(t *testing.T) {
	m, err := New(Config{Nodes: 8, Profile: rts.APRIL, Alewife: &AlewifeConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := mult.Compile(goldenQueens, mult.Mode{HardwareFutures: true}, m.StaticHeap())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(prog); err != nil {
		t.Fatal(err)
	}
	if done, err := m.RunWindow(goldenImageCycle); err != nil || done {
		t.Fatalf("RunWindow(%d) = done %v, err %v; want a live machine", goldenImageCycle, done, err)
	}

	sleeping, pending, homeTx, locked := 0, 0, 0, 0
	m.wakeq.forEach(func(int, uint64) { sleeping++ })
	for _, n := range m.Nodes {
		pending += n.cache.pending.Len()
		homeTx += n.cache.homeTx.Len()
		locked += n.cache.locked.Len()
	}
	t.Logf("cycle %d: %d sleeping nodes, %d pending misses, %d home transactions, %d locked blocks",
		m.Now(), sleeping, pending, homeTx, locked)
	if sleeping == 0 || pending == 0 || homeTx == 0 || locked == 0 {
		t.Errorf("the image does not cover every table: %d sleeping, %d pending, %d home tx, %d locked",
			sleeping, pending, homeTx, locked)
	}

	img, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(img)
	if got := hex.EncodeToString(sum[:]); got != goldenImageSHA256 {
		t.Errorf("image SHA-256 = %s, want %s (%d bytes): the image format moved", got, goldenImageSHA256, len(img))
	}
}
